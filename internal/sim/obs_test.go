package sim

import (
	"os"
	"strings"
	"testing"
	"time"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/obs"
	"sgxpreload/internal/workload"
)

// mixedTrace interleaves a sequential sweep with a strided re-visit so a
// run produces faults, preloads, in-window aborts, and evictions.
func mixedTrace(pages int) []mem.Access {
	var out []mem.Access
	for i := 0; i < pages; i++ {
		out = append(out, mem.Access{Site: 1, Page: mem.PageID(i), Compute: 500})
		if i%7 == 0 {
			out = append(out, mem.Access{Site: 2, Page: mem.PageID((i * 13) % pages), Compute: 500})
		}
	}
	return out
}

// The hook must only observe: attaching a recorder may not change any
// simulated outcome.
func TestHookDoesNotPerturbRun(t *testing.T) {
	trace := mixedTrace(2000)
	for _, scheme := range []Scheme{Baseline, DFP, DFPStop} {
		plain, err := solo(fixture(trace, scheme), small)
		if err != nil {
			t.Fatal(err)
		}
		hooked, err := solo(fixture(trace, scheme), SharedConfig{EPCPages: small.EPCPages, Hook: obs.NewRecorder()})
		if err != nil {
			t.Fatal(err)
		}
		if plain != hooked {
			t.Errorf("%s: result changed under observation:\n  plain  %+v\n  hooked %+v",
				scheme, plain, hooked)
		}
	}
}

// Two hooked runs of one configuration must record byte-identical
// timelines.
func TestEventStreamDeterministic(t *testing.T) {
	trace := mixedTrace(2000)
	export := func() string {
		rec := obs.NewRecorder()
		if _, err := solo(fixture(trace, DFPStop), SharedConfig{EPCPages: small.EPCPages, Hook: rec}); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := rec.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b := export(), export()
	if a == "" || a != b {
		t.Fatalf("event streams differ (lengths %d vs %d)", len(a), len(b))
	}
}

// The recorded timeline must agree with the run's counters, and the
// DFP-stop trip event must carry the exact cycle the Result reports.
func TestEventsMatchResultCounters(t *testing.T) {
	w, err := workload.ByName("deepsjeng")
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	res, err := solo(Enclave{Trace: w.Generate(workload.Ref), Pages: w.ELRangePages(), Scheme: DFPStop},
		SharedConfig{EPCPages: 2048, Hook: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Kernel.DFPStopped {
		t.Fatal("deepsjeng under DFP-stop did not trip the safety valve")
	}
	if got := obs.DFPStopAt(rec.Events()); got != res.Kernel.DFPStopCycle {
		t.Errorf("DFP-stop event at cycle %d, Result says %d", got, res.Kernel.DFPStopCycle)
	}
	counts := map[obs.Kind]uint64{}
	for _, e := range rec.Events() {
		counts[e.Kind]++
	}
	faults := res.Kernel.DemandFaults + res.Kernel.PresentOnArrival +
		res.Kernel.InflightHits + res.Kernel.InWindowAborts
	if counts[obs.KindFaultBegin] != faults || counts[obs.KindFaultEnd] != faults {
		t.Errorf("%d begin / %d end events, Result counts %d faults",
			counts[obs.KindFaultBegin], counts[obs.KindFaultEnd], faults)
	}
	if counts[obs.KindPreloadQueue] != res.Kernel.PreloadsQueued {
		t.Errorf("%d queue events, Result counts %d", counts[obs.KindPreloadQueue], res.Kernel.PreloadsQueued)
	}
	if counts[obs.KindEvict] != res.Kernel.Evictions {
		t.Errorf("%d evict events, Result counts %d", counts[obs.KindEvict], res.Kernel.Evictions)
	}
	if counts[obs.KindScan] != res.Kernel.Scans {
		t.Errorf("%d scan events, Result counts %d", counts[obs.KindScan], res.Kernel.Scans)
	}
	if counts[obs.KindDFPStop] != 1 {
		t.Errorf("%d stop events, want exactly 1", counts[obs.KindDFPStop])
	}
	// Fault-end events carry the protocol latency; their sum is bounded
	// by the run's fault-path time (demand faults pay AEX + wait +
	// ERESUME, the classes that skip parts of it pay less).
	h := obs.FaultLatencies(rec.Events(), obs.DefaultLatencyBounds())
	if h.Total != faults {
		t.Errorf("histogram over %d faults, want %d", h.Total, faults)
	}
	if h.Sum == 0 || h.Sum > res.FaultCycles()+res.Kernel.NotifyWaitCycles {
		t.Errorf("summed fault latency %d vs fault-path cycles %d", h.Sum, res.FaultCycles())
	}
}

// TestHookOverheadGuard bounds the hook plumbing's cost: a no-op-hook
// run must stay within 15% of a nil-hook run. The budget is a share of
// the engine's own hot path, so it tightens in absolute terms whenever
// the engine speeds up: the O(1) deque/page-table work cut the nil-hook
// run by ~40% while leaving per-event emission cost (struct build +
// interface call) unchanged, which is what moved the ratio from the ~2%
// measured on the pre-optimization engine. Wall-clock measurement is
// noisy, so the guard only runs when SGXSIM_HOOKGUARD=1 (make
// verify-obs sets it).
func TestHookOverheadGuard(t *testing.T) {
	if os.Getenv("SGXSIM_HOOKGUARD") != "1" {
		t.Skip("set SGXSIM_HOOKGUARD=1 to measure disabled-hook overhead")
	}
	trace := mixedTrace(60000)
	enc := Enclave{Trace: trace, Pages: 65536, Scheme: DFPStop}
	measure := func(hook obs.Hook) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 5; i++ {
			start := time.Now()
			if _, err := solo(enc, SharedConfig{EPCPages: 2048, Hook: hook}); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	nilHook := measure(nil)
	withHook := measure(nopHook{})
	overhead := float64(withHook-nilHook) / float64(nilHook)
	t.Logf("nil hook %v, no-op hook %v: %+.2f%% overhead", nilHook, withHook, 100*overhead)
	if overhead > 0.15 {
		t.Errorf("hook plumbing costs %+.2f%% with a no-op hook, budget is 15%%", 100*overhead)
	}
}

type nopHook struct{}

func (nopHook) Emit(obs.Event) {}
