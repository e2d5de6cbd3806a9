package epc

import (
	"testing"

	"sgxpreload/internal/mem"
)

// BenchmarkEPCLookup measures the page-table operations on the fault hot
// path — Present, Touch, and the Evict+Load pair on a miss — over a full
// EPC under a pseudo-random page stream. Before the array-backed page
// table these were map lookups; they are now direct array indexing.
func BenchmarkEPCLookup(b *testing.B) {
	const (
		capacity = 4096
		pages    = 1 << 16
	)
	e, err := New(capacity, pages)
	if err != nil {
		b.Fatal(err)
	}
	for p := mem.PageID(0); p < capacity; p++ {
		if err := e.Load(p, false); err != nil {
			b.Fatal(err)
		}
	}
	rnd := uint64(0x2545f4914f6cdd1d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		p := mem.PageID(rnd % pages)
		if e.Present(p) {
			e.Touch(p)
			continue
		}
		if e.Full() {
			if v := e.SelectVictim(); v != mem.NoPage {
				e.Evict(v)
			}
		}
		if err := e.Load(p, i%2 == 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEPCPresent isolates the residency probe, the single most
// frequent EPC operation (every access and every predict filter hits it).
func BenchmarkEPCPresent(b *testing.B) {
	const (
		capacity = 4096
		pages    = 1 << 16
	)
	e, err := New(capacity, pages)
	if err != nil {
		b.Fatal(err)
	}
	for p := mem.PageID(0); p < capacity; p++ {
		if err := e.Load(p, false); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One resident page and one absent page per iteration.
		if !e.Present(mem.PageID(i % capacity)) {
			b.Fatal("resident page reported absent")
		}
		if e.Present(mem.PageID(capacity + i%capacity)) {
			b.Fatal("absent page reported resident")
		}
	}
}

// serviceScanSink keeps BenchmarkServiceScan's reads from being
// optimized away.
var serviceScanSink int

// BenchmarkServiceScan measures one enclave's service-scan reads on a
// shared EPC shaped like the cohort-hits benchmark: 64 owners over ~37k
// frames, almost all demand-loaded, with a handful of preloaded pages per
// owner. One op is one owner's ScanPreloadBitsRange plus OwnerScanStats,
// the per-period work of kernel.MaybeScan under an adaptive arbiter.
func BenchmarkServiceScan(b *testing.B) {
	const (
		owners     = 64
		ownerPages = 768
		pages      = owners * ownerPages
		capacity   = pages * 3 / 4
		preloads   = 3 // per owner
	)
	e, err := New(capacity, pages)
	if err != nil {
		b.Fatal(err)
	}
	for o := 1; o <= owners; o++ {
		if err := e.AddOwner(uint64(o * ownerPages)); err != nil {
			b.Fatal(err)
		}
	}
	for o := 0; o < owners; o++ {
		base := mem.PageID(o * ownerPages)
		for i := 0; i < capacity/owners; i++ {
			if err := e.Load(base+mem.PageID(i), i < preloads); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		o := i % owners
		lo := mem.PageID(o * ownerPages)
		e.ScanPreloadBitsRange(lo, lo+ownerPages, true, func(_ mem.PageID, acc bool) {
			if acc {
				sink++
			}
		})
		acc, res := e.OwnerScanStats(o)
		sink += acc + res
	}
	serviceScanSink = sink
}
