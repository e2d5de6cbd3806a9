package sim

import (
	"testing"

	"sgxpreload/internal/dfp"
	"sgxpreload/internal/epc"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/rng"
	"sgxpreload/internal/sip"
)

// Randomized cross-scheme property tests: drive generated traces with
// mixed sequential/irregular structure through every scheme and check the
// invariants that must hold regardless of configuration.

// randomTrace generates a trace mixing runs, jumps, and site structure.
func randomTrace(r *rng.Source, n int, pages uint64) []mem.Access {
	out := make([]mem.Access, 0, n)
	pos := r.Uint64n(pages)
	for len(out) < n {
		switch r.Intn(4) {
		case 0: // sequential run
			run := 2 + r.Intn(12)
			for i := 0; i < run && len(out) < n; i++ {
				pos = (pos + 1) % pages
				out = append(out, mem.Access{
					Site: mem.SiteID(1 + r.Intn(8)), Page: mem.PageID(pos),
					Compute: r.Uint64n(60000),
				})
			}
		case 1: // random jump
			pos = r.Uint64n(pages)
			out = append(out, mem.Access{
				Site: mem.SiteID(10 + r.Intn(8)), Page: mem.PageID(pos),
				Compute: r.Uint64n(120000), Write: r.Intn(2) == 0,
			})
		case 2: // hot revisit
			out = append(out, mem.Access{
				Site: mem.SiteID(20), Page: mem.PageID(r.Uint64n(pages / 16)),
				Compute: r.Uint64n(8000),
			})
		default: // tight cluster around pos
			delta := uint64(r.Intn(3))
			p := (pos + delta) % pages
			out = append(out, mem.Access{
				Site: mem.SiteID(30), Page: mem.PageID(p), Compute: r.Uint64n(20000),
			})
		}
	}
	return out
}

// randomSelection instruments a random subset of the sites used above.
func randomSelection(r *rng.Source) *sip.Selection {
	prof := &sip.Profile{Sites: map[mem.SiteID]*sip.SiteProfile{}}
	for s := mem.SiteID(1); s <= 30; s++ {
		sp := &sip.SiteProfile{Class1: uint64(r.Intn(100))}
		if r.Intn(2) == 0 {
			sp.Class3 = 100 // guaranteed above threshold
		}
		prof.Sites[s] = sp
	}
	return sip.Select(prof, 0.05, 0)
}

func TestPropertyInvariantsAcrossSchemes(t *testing.T) {
	seeds := []uint64{1, 7, 42, 1234, 99999}
	schemes := []Scheme{Baseline, DFP, DFPStop, SIP, Hybrid}
	for _, seed := range seeds {
		r := rng.New(seed)
		const pages = 2048
		trace := randomTrace(r, 4000, pages)
		sel := randomSelection(r.Fork())
		epcSizes := []int{1, 16, 256, 1024, 4096}
		for _, scheme := range schemes {
			for _, size := range epcSizes {
				res, err := solo(Enclave{
					Trace:     trace,
					Pages:     pages,
					Scheme:    scheme,
					DFP:       dfp.DefaultConfig(),
					Selection: sel,
				}, SharedConfig{EPCPages: size})
				if err != nil {
					t.Fatalf("seed %d %s epc %d: %v", seed, scheme, size, err)
				}
				checkInvariants(t, trace, res, seed, scheme, size)
			}
		}
	}
}

func checkInvariants(t *testing.T, trace []mem.Access, res Result, seed uint64, scheme Scheme, size int) {
	t.Helper()
	label := func(msg string, args ...interface{}) {
		t.Errorf("seed %d, %s, EPC %d: "+msg, append([]interface{}{seed, scheme, size}, args...)...)
	}
	if res.Accesses != uint64(len(trace)) {
		label("accesses %d != trace %d", res.Accesses, len(trace))
	}
	// Conservation: every access either hit, faulted, or was served
	// resident via a completed notify-load before the touch.
	served := res.Hits + res.Kernel.DemandFaults
	if served != res.Accesses {
		label("hits %d + faults %d != accesses %d",
			res.Hits, res.Kernel.DemandFaults, res.Accesses)
	}
	// Time can never be less than the trace's own compute.
	if res.Cycles < res.ComputeCycles {
		label("cycles %d < compute %d", res.Cycles, res.ComputeCycles)
	}
	// Protocol accounting: AEX and ERESUME are paid exactly per fault.
	cm := mem.DefaultCostModel()
	if res.Kernel.AEXCycles != res.Kernel.DemandFaults*cm.AEX {
		label("AEX cycles %d != faults %d x %d",
			res.Kernel.AEXCycles, res.Kernel.DemandFaults, cm.AEX)
	}
	if res.Kernel.EresumeCycles != res.Kernel.DemandFaults*cm.Eresume {
		label("ERESUME cycles %d != faults x cost")
	}
	// SIP counters only appear when the scheme uses SIP.
	if !scheme.UsesSIP() && (res.SIPChecks != 0 || res.Kernel.NotifyLoads != 0) {
		label("SIP activity without SIP: checks %d, notifies %d",
			res.SIPChecks, res.Kernel.NotifyLoads)
	}
	// Preloads only appear when the scheme uses DFP.
	if !scheme.UsesDFP() && res.Kernel.PreloadsStarted != 0 {
		label("preloads without DFP: %d", res.Kernel.PreloadsStarted)
	}
	// Notify bookkeeping: every check either found the page present or
	// went down the notify path (as a load or a hit on an in-flight /
	// just-arrived page).
	if res.SIPChecks < res.SIPPresent {
		label("SIPPresent %d > SIPChecks %d", res.SIPPresent, res.SIPChecks)
	}
	notifies := res.Kernel.NotifyLoads + res.Kernel.NotifyHits
	if res.SIPChecks-res.SIPPresent != notifies {
		label("bitmap misses %d != notify paths %d",
			res.SIPChecks-res.SIPPresent, notifies)
	}
}

func TestPropertyBaselineCycleFormula(t *testing.T) {
	// For the baseline scheme the total time is exactly decomposable:
	// compute + hits + faults x (AEX+ERESUME+hit) + load waits.
	for _, seed := range []uint64{3, 17, 2024} {
		r := rng.New(seed)
		trace := randomTrace(r, 3000, 1024)
		res, err := solo(Enclave{Trace: trace, Pages: 1024, Scheme: Baseline}, SharedConfig{EPCPages: 256})
		if err != nil {
			t.Fatal(err)
		}
		cm := mem.DefaultCostModel()
		want := res.ComputeCycles +
			res.Accesses*cm.Hit +
			res.Kernel.AEXCycles + res.Kernel.EresumeCycles + res.Kernel.LoadWaitCycles
		if res.Cycles != want {
			t.Fatalf("seed %d: cycles %d != decomposition %d", seed, res.Cycles, want)
		}
	}
}

func TestPropertyDFPStopNeverMuchWorseThanBaseline(t *testing.T) {
	// The safety valve's contract: whatever the access pattern, DFP-stop
	// must stay within a bounded distance of the baseline.
	for _, seed := range []uint64{5, 55, 555, 5555} {
		r := rng.New(seed)
		trace := randomTrace(r, 6000, 4096)
		base, err := solo(fixture(trace, Baseline), SharedConfig{EPCPages: 512})
		if err != nil {
			t.Fatal(err)
		}
		stop := fixture(trace, DFPStop)
		// Small slack so the valve reacts at this trace length.
		stop.DFP = dfp.Config{StreamListLen: 30, LoadLength: 4, StopSlack: 100}
		res, err := solo(stop, SharedConfig{EPCPages: 512})
		if err != nil {
			t.Fatal(err)
		}
		if float64(res.Cycles) > 1.15*float64(base.Cycles) {
			t.Errorf("seed %d: DFP-stop %d vs baseline %d (+%.1f%%): valve failed to bound the loss",
				seed, res.Cycles, base.Cycles,
				100*(float64(res.Cycles)/float64(base.Cycles)-1))
		}
	}
}

func TestPropertyEPCStateConsistentAfterRuns(t *testing.T) {
	// White-box: replay an engine-equivalent loop against the kernel and
	// check the EPC invariants at the end. (The engine owns its kernel;
	// this exercises the same path with direct access.)
	r := rng.New(77)
	trace := randomTrace(r, 2000, 512)
	for _, policy := range []epc.Policy{epc.PolicyClock, epc.PolicyLRU, epc.PolicyFIFO, epc.PolicyRandom} {
		res, err := solo(Enclave{Trace: trace, Pages: 512, Scheme: DFP},
			SharedConfig{EPCPages: 64, EvictPolicy: policy})
		if err != nil {
			t.Fatalf("policy %s: %v", policy, err)
		}
		if res.Kernel.DemandFaults == 0 {
			t.Fatalf("policy %s: no faults on a 512-page trace with 64-frame EPC", policy)
		}
	}
}
