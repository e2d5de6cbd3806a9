package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/sim"
	"sgxpreload/internal/sip"
	"sgxpreload/internal/workload"
)

// Scheduler semantics: results land by cell index, errors surface in
// sequential order, and worker counts are clamped sanely.

// sweepAt runs the runner-bound scheduler at a fixed worker count.
func sweepAt[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	r := NewRunner(Default())
	r.SetParallelism(workers)
	return sweep(r, "test", n, func(int) string { return "" }, fn)
}

func TestSweepOrdering(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		out, err := sweepAt(workers, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestSweepEmpty(t *testing.T) {
	out, err := sweepAt(4, 0, func(i int) (int, error) { return 0, nil })
	if out != nil || err != nil {
		t.Fatalf("sweep of 0 cells = (%v, %v), want (nil, nil)", out, err)
	}
}

func TestSweepLowestIndexError(t *testing.T) {
	// Every cell from 5 up fails with an index-tagged error. Dispatch is
	// contiguous from zero, so regardless of completion order the caller
	// must see cell 5's error — the one a sequential loop would hit first.
	for _, workers := range []int{1, 4} {
		_, err := sweepAt(workers, 50, func(i int) (int, error) {
			if i >= 5 {
				return 0, fmt.Errorf("cell %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "cell 5 failed" {
			t.Fatalf("workers=%d: err = %v, want cell 5's error", workers, err)
		}
	}
}

func TestSweepSequentialStopsEarly(t *testing.T) {
	calls := 0
	sentinel := errors.New("boom")
	_, err := sweepAt(1, 100, func(i int) (int, error) {
		calls++
		if i == 2 {
			return 0, sentinel
		}
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if calls != 3 {
		t.Fatalf("sequential sweep made %d calls after failure at cell 2, want 3", calls)
	}
}

// The determinism guarantee of the worker pool: every table and figure is
// byte-identical at parallelism 1 and parallelism N. Fresh runners on both
// sides so neither leans on the other's caches.

func TestParallelMatchesSequential(t *testing.T) {
	seq := NewRunner(Default())
	seq.SetParallelism(1)
	par := NewRunner(Default())
	par.SetParallelism(8)

	f3s, err := Figure3(seq)
	if err != nil {
		t.Fatal(err)
	}
	f3p, err := Figure3(par)
	if err != nil {
		t.Fatal(err)
	}
	if f3s.String() != f3p.String() {
		t.Errorf("Figure3 diverges between -parallel 1 and -parallel 8:\n--- seq ---\n%s--- par ---\n%s",
			f3s.String(), f3p.String())
	}

	// Figure 10 exercises the RunAll grid plus the SIP profile/selection
	// caches under concurrent single-flight fills.
	f10s, err := Figure10(seq)
	if err != nil {
		t.Fatal(err)
	}
	f10p, err := Figure10(par)
	if err != nil {
		t.Fatal(err)
	}
	if f10s.String() != f10p.String() {
		t.Errorf("Figure10 diverges between -parallel 1 and -parallel 8:\n--- seq ---\n%s--- par ---\n%s",
			f10s.String(), f10p.String())
	}
}

func TestRunAllShape(t *testing.T) {
	r := NewRunner(Default())
	r.SetParallelism(4)
	names := []string{"lbm", "microbenchmark"}
	schemes := []sim.Scheme{sim.Baseline, sim.DFPStop}
	res, err := r.RunAll(names, schemes)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(names) {
		t.Fatalf("RunAll returned %d rows, want %d", len(res), len(names))
	}
	for i, row := range res {
		if len(row) != len(schemes) {
			t.Fatalf("row %d has %d cells, want %d", i, len(row), len(schemes))
		}
		for j, cell := range row {
			if cell.Scheme != schemes[j] {
				t.Errorf("res[%d][%d].Scheme = %v, want %v", i, j, cell.Scheme, schemes[j])
			}
			if cell.Cycles == 0 {
				t.Errorf("res[%d][%d] has zero cycles", i, j)
			}
		}
	}
	if res[0][0].Cycles == res[1][0].Cycles {
		t.Error("distinct workloads produced identical baseline cycles")
	}
}

func TestRunAllPropagatesUnknownName(t *testing.T) {
	r := NewRunner(Default())
	_, err := r.RunAll([]string{"no-such-benchmark"}, []sim.Scheme{sim.Baseline})
	if err == nil {
		t.Fatal("RunAll with an unknown benchmark returned nil error")
	}
}

// Cache single-flight: concurrent requesters of the same trace, profile,
// or selection must share exactly one fill. Run under -race this also
// checks the memo's synchronization.

func TestCacheSingleFlight(t *testing.T) {
	r := NewRunner(Default())
	w, err := workload.ByName("deepsjeng")
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	profiles := make([]*sip.Profile, goroutines)
	selections := make([]*sip.Selection, goroutines)
	traceFirst := make([]*mem.Access, goroutines)

	var wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start.Wait()
			tr := r.Trace(w, workload.Ref)
			if len(tr) > 0 {
				traceFirst[g] = &tr[0]
			}
			p, err := r.Profile(w)
			if err != nil {
				t.Error(err)
				return
			}
			profiles[g] = p
			s, err := r.Selection(w)
			if err != nil {
				t.Error(err)
				return
			}
			selections[g] = s
		}(g)
	}
	start.Done()
	wg.Wait()

	for g := 1; g < goroutines; g++ {
		if profiles[g] != profiles[0] {
			t.Fatalf("goroutine %d saw a different *Profile: the fill ran more than once", g)
		}
		if selections[g] != selections[0] {
			t.Fatalf("goroutine %d saw a different *Selection: the fill ran more than once", g)
		}
		if traceFirst[g] != traceFirst[0] {
			t.Fatalf("goroutine %d saw a different trace backing array: the fill ran more than once", g)
		}
	}
	// Two traces (Ref here, Train pulled in by the profile fill), one
	// profile, one selection — each filled exactly once.
	if r.traces.size() != 2 || r.profiles.size() != 1 || r.selections.size() != 1 {
		t.Fatalf("cache sizes = (%d, %d, %d), want (2, 1, 1)",
			r.traces.size(), r.profiles.size(), r.selections.size())
	}
}

// Progress reporting: every cell of a sweep is reported exactly once, with
// monotone-coverage done counts and the sweep's total.
func TestProgressReporting(t *testing.T) {
	r := NewRunner(Default())
	r.SetParallelism(4)
	type call struct {
		done, total int
		label       string
	}
	var mu sync.Mutex
	var calls []call
	r.SetProgress(func(done, total int, label string) {
		mu.Lock()
		defer mu.Unlock()
		calls = append(calls, call{done, total, label})
	})
	names := []string{"lbm", "microbenchmark"}
	schemes := []sim.Scheme{sim.Baseline, sim.DFPStop}
	if _, err := r.RunAll(names, schemes); err != nil {
		t.Fatal(err)
	}
	n := len(names) * len(schemes)
	if len(calls) != n {
		t.Fatalf("progress reported %d cells, want %d", len(calls), n)
	}
	seen := map[int]bool{}
	for _, c := range calls {
		if c.total != n {
			t.Errorf("reported total %d, want %d", c.total, n)
		}
		if c.done < 1 || c.done > n || seen[c.done] {
			t.Errorf("done counter %d out of range or duplicated", c.done)
		}
		seen[c.done] = true
		if c.label == "" {
			t.Error("empty progress label")
		}
	}
}

// The speedup benchmark of the PR's acceptance criteria: the full DFP
// grid, sequential versus the worker pool. On a >= 4-core machine the
// parallel variant completes the same work >= 2x faster; on a single-core
// machine the two are equivalent (the pool degenerates to one worker).
//
//	go test ./internal/experiments/ -bench BenchmarkRunAll -run ^$

func benchmarkRunAll(b *testing.B, workers int) {
	names := LargeWorkingSet()
	schemes := []sim.Scheme{sim.Baseline, sim.DFPStop}
	for i := 0; i < b.N; i++ {
		r := NewRunner(Default())
		r.SetParallelism(workers)
		if _, err := r.RunAll(names, schemes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunAllSequential(b *testing.B) { benchmarkRunAll(b, 1) }

func BenchmarkRunAllParallel(b *testing.B) { benchmarkRunAll(b, runtime.GOMAXPROCS(0)) }
