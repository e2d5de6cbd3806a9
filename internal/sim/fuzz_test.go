package sim

import (
	"testing"

	"sgxpreload/internal/epc/arbiter"
	"sgxpreload/internal/mem"
)

// FuzzEngine feeds arbitrary byte-derived traces through every scheme: no
// panic, exact access conservation, monotone time, and the pull-based
// iterator path produces the identical Result.
func FuzzEngine(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(1))
	f.Add([]byte{0}, uint8(0))
	f.Add([]byte{9, 9, 9, 9, 200, 201, 202}, uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, schemeSel uint8) {
		if len(data) > 512 {
			data = data[:512]
		}
		const pages = 300
		trace := make([]mem.Access, 0, len(data))
		for i, b := range data {
			trace = append(trace, mem.Access{
				Site:    mem.SiteID(b % 7),
				Page:    mem.PageID(uint64(b) * uint64(i+1) % pages),
				Compute: uint64(b) * 100,
			})
		}
		scheme := Scheme(int(schemeSel) % 5)
		cfg := SharedConfig{EPCPages: 1 + int(schemeSel)%64}
		res, err := solo(Enclave{Trace: trace, Pages: pages, Scheme: scheme}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Accesses != uint64(len(trace)) {
			t.Fatalf("accesses %d != %d", res.Accesses, len(trace))
		}
		if res.Hits+res.Kernel.DemandFaults != res.Accesses {
			t.Fatalf("conservation violated: %d + %d != %d",
				res.Hits, res.Kernel.DemandFaults, res.Accesses)
		}
		if res.Cycles < res.ComputeCycles {
			t.Fatalf("cycles %d < compute %d", res.Cycles, res.ComputeCycles)
		}
		streamed, err := solo(Enclave{Stream: funcStream(trace), Pages: pages, Scheme: scheme}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if streamed != res {
			t.Fatalf("iterator path diverges from slice path:\n  slice  %+v\n  stream %+v",
				res, streamed)
		}

		// A two-enclave shared run under a byte-derived quota policy:
		// the EPC's ownership invariants (per-owner resident counts sum
		// to Resident, every frame stamped with its range's owner) must
		// hold after every access, and conservation per enclave.
		quota := arbiter.Policy(int(schemeSel) % 4)
		eng, err := New([]Enclave{
			{Name: "a", Trace: trace, Pages: pages, Scheme: scheme},
			{Name: "b", Trace: trace, Pages: pages, Scheme: scheme},
		}, SharedConfig{EPCPages: cfg.EPCPages, Quota: quota})
		if err != nil {
			t.Fatal(err)
		}
		for {
			more, err := eng.Step()
			if err != nil {
				t.Fatal(err)
			}
			if !more {
				break
			}
			if err := eng.shared.CheckInvariants(); err != nil {
				t.Fatalf("quota %v: %v", quota, err)
			}
		}
		if sum := eng.OwnerResident(0) + eng.OwnerResident(1); sum != eng.EPCResident() {
			t.Fatalf("quota %v: owner residents sum to %d, EPC holds %d",
				quota, sum, eng.EPCResident())
		}
		for _, r := range eng.Results() {
			if r.Hits+r.Kernel.DemandFaults != r.Accesses {
				t.Fatalf("quota %v: enclave %s conservation violated: %d + %d != %d",
					quota, r.Name, r.Hits, r.Kernel.DemandFaults, r.Accesses)
			}
		}
	})
}
