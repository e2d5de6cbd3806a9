package sgxpreload

import (
	"runtime"
	"testing"

	"sgxpreload/internal/mem"
)

func TestBuiltinBenchmarksImplementStreamer(t *testing.T) {
	w, err := Benchmark("lbm")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w.(Streamer); !ok {
		t.Fatal("built-in benchmark does not implement Streamer")
	}
}

func TestRunWorkloadStreamMatchesRun(t *testing.T) {
	// Run streams its workload, and the input path must be invisible in
	// the results: a built-in's own generator, a foreign Streamer, and the
	// Trace fallback all replay the same accesses, SIP-profiled schemes
	// included.
	for _, tc := range []struct {
		bench  string
		scheme Scheme
	}{
		{"lbm", DFPStop},
		{"deepsjeng", Baseline},
		{"deepsjeng", DFPStop},
		{"microbenchmark", Hybrid},
	} {
		w, err := Benchmark(tc.bench)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Scheme: tc.scheme}
		if tc.scheme == SIP || tc.scheme == Hybrid {
			if cfg.Selection, err = Profile(w, cfg); err != nil {
				t.Fatal(err)
			}
		}
		want, err := Run(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, alt := range []Workload{onlyStreamer{noStreamer{w}}, noStreamer{w}} {
			got, err := Run(alt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s/%s via %T diverges:\n  builtin %+v\n  %T %+v",
					tc.bench, tc.scheme, alt, want, alt, got)
			}
		}
	}
	// A SIP request without a profile fails the same way on every path.
	w, err := Benchmark("bwaves")
	if err != nil {
		t.Fatal(err)
	}
	for _, alt := range []Workload{w, onlyStreamer{noStreamer{w}}, noStreamer{w}} {
		if _, err := Run(alt, Config{Scheme: SIP}); err == nil {
			t.Errorf("%T: SIP run of bwaves without a Selection accepted", alt)
		}
	}
}

// noStreamer hides a workload's Streamer implementation to force the
// Trace fallback.
type noStreamer struct{ w Workload }

func (n noStreamer) Name() string            { return n.w.Name() }
func (n noStreamer) Pages() uint64           { return n.w.Pages() }
func (n noStreamer) Trace(in Input) []Access { return n.w.Trace(in) }

// onlyStreamer forwards a built-in's Streamer through a foreign type,
// so Run takes the generic Streamer path instead of the built-in one.
type onlyStreamer struct{ noStreamer }

func (o onlyStreamer) Stream(in Input) AccessStream { return o.w.(Streamer).Stream(in) }

func TestRunStreamCustomSource(t *testing.T) {
	// A hand-written generator: sweep 4096 pages twice through a
	// 1024-frame EPC; DFP must beat baseline on a pure stream.
	const pages, accesses = 4096, 8192
	mk := func() AccessStream {
		var i uint64
		return LimitStream(StreamFunc(func() (Access, bool) {
			i++
			return Access{Page: (i - 1) % pages, Compute: 3000}, true
		}), accesses)
	}
	base, err := RunStream(mk(), pages, Config{Scheme: Baseline, EPCPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if base.Accesses != accesses {
		t.Fatalf("ran %d accesses, want %d", base.Accesses, accesses)
	}
	dfp, err := RunStream(mk(), pages, Config{Scheme: DFP, EPCPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if dfp.Cycles >= base.Cycles {
		t.Errorf("DFP on a sequential stream (%d cycles) not faster than baseline (%d)",
			dfp.Cycles, base.Cycles)
	}
}

func TestRunStreamValidation(t *testing.T) {
	if _, err := RunStream(nil, 100, Config{}); err == nil {
		t.Error("nil stream accepted")
	}
	src := StreamFunc(func() (Access, bool) { return Access{Page: 50}, true })
	if _, err := RunStream(src, 0, Config{}); err == nil {
		t.Error("zero page range accepted")
	}
	// Out-of-range accesses surface as an error, like materialized runs.
	oob := LimitStream(StreamFunc(func() (Access, bool) {
		return Access{Page: 999}, true
	}), 10)
	if _, err := RunStream(oob, 100, Config{}); err == nil {
		t.Error("out-of-range streamed access accepted")
	}
}

func TestLimitStream(t *testing.T) {
	var produced int
	src := StreamFunc(func() (Access, bool) {
		produced++
		return Access{Page: uint64(produced)}, true
	})
	lim := LimitStream(src, 3)
	for i := 0; i < 3; i++ {
		if _, ok := lim.Next(); !ok {
			t.Fatalf("limited stream ended at %d of 3", i)
		}
	}
	if _, ok := lim.Next(); ok {
		t.Error("limited stream exceeded its cap")
	}
	if produced != 3 {
		t.Errorf("limit pulled %d accesses from the source, want 3", produced)
	}
}

func TestSharedPredictorKnob(t *testing.T) {
	w, err := Benchmark("deepsjeng")
	if err != nil {
		t.Fatal(err)
	}
	run := func(pred string) []SharedResult {
		res, err := RunShared([]EnclaveSpec{
			{Workload: w, Scheme: DFP, Predictor: pred},
		}, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	def, nextn := run(""), run("nextn")
	if def[0].Result == nextn[0].Result {
		t.Error("per-enclave predictor override had no effect")
	}
	if _, err := RunShared([]EnclaveSpec{
		{Workload: w, Scheme: DFP, Predictor: "bogus"},
	}, DefaultConfig()); err == nil {
		t.Error("unknown predictor name accepted")
	}
}

// leakRuns is how many runs the goroutine-leak tests make: a leak of one
// generator coroutine per run shows as that many extra goroutines.
const leakRuns = 20

// checkNoLeak fails if leakRuns calls of run left goroutines behind.
func checkNoLeak(t *testing.T, what string, run func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	for i := 0; i < leakRuns; i++ {
		run()
	}
	if leaked := runtime.NumGoroutine() - before; leaked >= leakRuns/2 {
		t.Errorf("%d %s left %d goroutines behind", leakRuns, what, leaked)
	}
}

func TestLimitStreamReleasesGenerator(t *testing.T) {
	// A run ends at LimitStream's cap as at exhaustion, without Close, so
	// the cap must release a built-in benchmark's generator.
	w, err := Benchmark("lbm")
	if err != nil {
		t.Fatal(err)
	}
	checkNoLeak(t, "capped runs", func() {
		res, err := RunStream(LimitStream(w.(Streamer).Stream(Ref), 1000), w.Pages(), Config{Scheme: DFPStop})
		if err != nil {
			t.Fatal(err)
		}
		if res.Accesses != 1000 {
			t.Fatalf("capped run made %d accesses, want 1000", res.Accesses)
		}
	})
}

// shortPages declares fewer pages than its stream touches, so runs and
// profiles over it stop early with an error.
type shortPages struct{ onlyStreamer }

func (shortPages) Pages() uint64 { return 8 }

func TestStreamAdaptersForwardClose(t *testing.T) {
	// A built-in stream abandoned early, directly or behind a foreign
	// Streamer that a failing run or profile closes, must release its
	// generator through every public adapter.
	w, err := Benchmark("lbm")
	if err != nil {
		t.Fatal(err)
	}
	checkNoLeak(t, "abandoned built-in streams", func() {
		s := w.(Streamer).Stream(Ref)
		s.Next()
		c, ok := s.(mem.Closer)
		if !ok {
			t.Fatal("built-in stream has no Close")
		}
		c.Close()
		if _, ok := s.Next(); ok {
			t.Fatal("closed built-in stream still yields accesses")
		}
	})
	short := shortPages{onlyStreamer{noStreamer{w}}}
	checkNoLeak(t, "failed runs", func() {
		if _, err := Run(short, Config{Scheme: DFPStop}); err == nil {
			t.Fatal("run past the declared pages accepted")
		}
	})
	checkNoLeak(t, "failed profiles", func() {
		if _, err := Profile(short, DefaultConfig()); err == nil {
			t.Fatal("profile past the declared pages accepted")
		}
	})
	checkNoLeak(t, "capped streams closed early", func() {
		s := LimitStream(w.(Streamer).Stream(Ref), 1000)
		s.Next()
		s.(mem.Closer).Close()
	})
}
