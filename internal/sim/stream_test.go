package sim

import (
	"os"
	"runtime"
	"testing"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/rng"
	"sgxpreload/internal/workload"
)

// Streaming equivalence: the engine must not be able to tell whether its
// input is a materialized slice or a pull-based stream. These tests pin
// that property for random traces, for the built-in benchmark
// generators, and (via TestStreamSmoke) for trace lengths that could
// never be materialized.

// funcStream wraps a slice behind a StreamFunc so the engine sees an
// opaque iterator rather than its own slice adapter.
func funcStream(trace []mem.Access) mem.Stream {
	i := 0
	return mem.StreamFunc(func() (mem.Access, bool) {
		if i >= len(trace) {
			return mem.Access{}, false
		}
		a := trace[i]
		i++
		return a, true
	})
}

// TestPropertyStreamEqualsSlice: for random traces under every scheme,
// the streamed engine and the materialized-slice engine produce
// identical Results.
func TestPropertyStreamEqualsSlice(t *testing.T) {
	schemes := []Scheme{Baseline, DFP, DFPStop, SIP, Hybrid}
	for _, seed := range []uint64{2, 11, 77, 4242} {
		r := rng.New(seed)
		const pages = 1024
		trace := randomTrace(r, 3000, pages)
		sel := randomSelection(r.Fork())
		for _, scheme := range schemes {
			enc := Enclave{Trace: trace, Pages: pages, Scheme: scheme, Selection: sel}
			slice, err := solo(enc, SharedConfig{EPCPages: 192})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, scheme, err)
			}
			enc.Trace, enc.Stream = nil, funcStream(trace)
			streamed, err := solo(enc, SharedConfig{EPCPages: 192})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, scheme, err)
			}
			if slice != streamed {
				t.Errorf("seed %d %s: stream diverges from slice:\n  slice  %+v\n  stream %+v",
					seed, scheme, slice, streamed)
			}
		}
	}
}

// TestPropertySharedStreamEqualsSlice: a multi-enclave run fed by
// streams must match the same run fed by materialized traces.
func TestPropertySharedStreamEqualsSlice(t *testing.T) {
	r := rng.New(31337)
	ta := randomTrace(r, 2500, 700)
	tb := randomTrace(r, 2000, 500)
	mk := func(streamed bool) []Enclave {
		encs := []Enclave{
			{Name: "a", Pages: 700, Scheme: DFPStop},
			{Name: "b", Pages: 500, Scheme: Baseline, BackgroundReclaim: true},
		}
		if streamed {
			encs[0].Stream = funcStream(ta)
			encs[1].Stream = funcStream(tb)
		} else {
			encs[0].Trace = ta
			encs[1].Trace = tb
		}
		return encs
	}
	cfg := SharedConfig{EPCPages: 256}
	slice, err := RunShared(mk(false), cfg)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := RunShared(mk(true), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range slice {
		if slice[i] != streamed[i] {
			t.Errorf("enclave %d: stream diverges from slice:\n  slice  %+v\n  stream %+v",
				i, slice[i], streamed[i])
		}
	}
}

// TestWorkloadStreamThroughEngine: the generator coroutine path
// (workload.Stream) must reproduce the materialized benchmark runs.
func TestWorkloadStreamThroughEngine(t *testing.T) {
	for _, bench := range []string{"lbm", "deepsjeng"} {
		w, err := workload.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		cfg := SharedConfig{EPCPages: 2048}
		slice, err := solo(Enclave{Trace: w.Generate(workload.Ref), Pages: w.ELRangePages(), Scheme: DFPStop}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := solo(Enclave{Stream: w.Stream(workload.Ref), Pages: w.ELRangePages(), Scheme: DFPStop}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if slice != streamed {
			t.Errorf("%s: generator stream diverges from Generate:\n  slice  %+v\n  stream %+v",
				bench, slice, streamed)
		}
	}
}

// syntheticStream is an unbounded deterministic page-access generator:
// interleaved sequential sweeps with a strided revisit, the pattern mix
// the benchmarks exhibit, producible forever in O(1) state.
func syntheticStream(pages uint64) mem.Stream {
	var i uint64
	return mem.StreamFunc(func() (mem.Access, bool) {
		i++
		acc := mem.Access{Site: mem.SiteID(1 + i%5), Compute: 2000 + (i*2654435761)%3000}
		if i%13 == 0 {
			acc.Page = mem.PageID((i * 7919) % pages) // strided revisit
		} else {
			acc.Page = mem.PageID(i % pages) // sweep
		}
		return acc, true
	})
}

// TestStreamSmoke drives a 10M-access synthetic sweep through the
// streaming engine under a heap ceiling: peak heap must be independent
// of trace length (the same trace materialized would occupy ~400 MB).
// The guard is wall-clock heavy, so it only runs when
// SGXSIM_STREAMSMOKE=1 (make stream-smoke sets it).
func TestStreamSmoke(t *testing.T) {
	if os.Getenv("SGXSIM_STREAMSMOKE") != "1" {
		t.Skip("set SGXSIM_STREAMSMOKE=1 to run the 10M-access streaming smoke")
	}
	const accesses = 10_000_000
	const pages = 1 << 16
	enc := Enclave{Stream: mem.Limit(syntheticStream(pages), accesses), Pages: pages, Scheme: DFPStop}
	eng, err := New([]Enclave{enc}, SharedConfig{EPCPages: 2048})
	if err != nil {
		t.Fatal(err)
	}

	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	runtime.GC()
	floor := heap()
	// 64 MiB of slack over the post-build floor: far below the ~400 MB a
	// materialized 10M-access trace would need, far above the engine's
	// working state (EPC tables, pending queue, predictor).
	ceiling := floor + 64<<20

	var peak uint64
	var steps uint64
	for {
		more, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
		if steps++; steps%1_000_000 == 0 {
			if h := heap(); h > peak {
				peak = h
			}
			if peak > ceiling {
				t.Fatalf("heap %d after %d accesses exceeds ceiling %d (floor %d): "+
					"streaming run is not O(1) memory", peak, steps, ceiling, floor)
			}
		}
	}
	res := eng.Result(0).Result
	if res.Accesses != accesses {
		t.Fatalf("ran %d accesses, want %d", res.Accesses, accesses)
	}
	if res.Kernel.DemandFaults == 0 {
		t.Fatal("smoke trace produced no faults; the sweep is not exercising paging")
	}
	t.Logf("10M accesses: %d faults, %d preloads started, peak heap %.1f MiB (post-build floor %.1f MiB)",
		res.Kernel.DemandFaults, res.Kernel.PreloadsStarted,
		float64(peak)/(1<<20), float64(floor)/(1<<20))
}

// TestStepAllocsO1: in steady state, an engine Step must not allocate —
// the guard behind the O(1)-allocs-per-access claim. Warm the engine
// past its ring/map growth phase, then measure.
func TestStepAllocsO1(t *testing.T) {
	const pages = 1 << 14
	enc := Enclave{Stream: syntheticStream(pages), Pages: pages, Scheme: DFPStop}
	eng, err := New([]Enclave{enc}, SharedConfig{EPCPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200_000; i++ { // warm: EPC full, queues at steady size
		step()
	}
	const batch = 10_000
	perBatch := testing.AllocsPerRun(5, func() {
		for i := 0; i < batch; i++ {
			step()
		}
	})
	if perAccess := perBatch / batch; perAccess > 0.01 {
		t.Errorf("%.4f allocs per access in steady state, want ~0", perAccess)
	}
}

// BenchmarkRunStream measures the streamed engine's per-access cost
// (allocs/op must be ~0; see TestStepAllocsO1 for the hard guard).
func BenchmarkRunStream(b *testing.B) {
	const pages = 1 << 14
	enc := Enclave{Stream: syntheticStream(pages), Pages: pages, Scheme: DFPStop}
	eng, err := New([]Enclave{enc}, SharedConfig{EPCPages: 1024})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 50_000; i++ {
		if _, err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
