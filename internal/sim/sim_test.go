package sim

import (
	"testing"

	"sgxpreload/internal/dfp"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/sip"
	"sgxpreload/internal/workload"
)

func seqTrace(pages, passes int, compute uint64) []mem.Access {
	var out []mem.Access
	for p := 0; p < passes; p++ {
		for i := 0; i < pages; i++ {
			out = append(out, mem.Access{Site: 1, Page: mem.PageID(i), Compute: compute})
		}
	}
	return out
}

// solo runs e as the only enclave on platform cfg — the one-enclave
// RunShared that most engine tests exercise.
func solo(e Enclave, cfg SharedConfig) (Result, error) {
	res, err := RunShared([]Enclave{e}, cfg)
	if err != nil {
		return Result{}, err
	}
	return res[0].Result, nil
}

// fixture is the small test enclave: trace under scheme on a 4096-page
// ELRANGE, run on the 64-frame small platform.
func fixture(trace []mem.Access, scheme Scheme) Enclave {
	return Enclave{Trace: trace, Pages: 4096, Scheme: scheme}
}

var small = SharedConfig{EPCPages: 64}

func TestRunValidation(t *testing.T) {
	if _, err := solo(Enclave{Scheme: Baseline}, SharedConfig{EPCPages: 4}); err == nil {
		t.Fatal("run without an ELRANGE succeeded")
	}
	bad := small
	bad.Costs = mem.CostModel{AEX: 1} // Load == 0
	if _, err := solo(fixture(nil, Baseline), bad); err == nil {
		t.Fatal("run with invalid cost model succeeded")
	}
}

func TestEmptyTrace(t *testing.T) {
	res, err := solo(fixture(nil, Baseline), small)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 0 || res.Accesses != 0 {
		t.Fatalf("empty trace produced %+v", res)
	}
}

func TestBaselineAccounting(t *testing.T) {
	cm := mem.DefaultCostModel()
	tr := seqTrace(10, 1, 100)
	res, err := solo(fixture(tr, Baseline), small)
	if err != nil {
		t.Fatal(err)
	}
	// Every page cold-faults once; EPC has room, so no eviction.
	want := 10*(100+cm.FaultCost()+cm.Hit) + 0
	if res.Cycles != uint64(want) {
		t.Fatalf("cycles = %d, want %d", res.Cycles, want)
	}
	if res.Faults() != 10 || res.Hits != 0 {
		t.Fatalf("faults = %d, hits = %d; want 10, 0", res.Faults(), res.Hits)
	}
	// Second pass hits.
	res2, err := solo(fixture(seqTrace(10, 2, 100), Baseline), small)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Faults() != 10 || res2.Hits != 10 {
		t.Fatalf("faults = %d, hits = %d; want 10 faults, 10 hits", res2.Faults(), res2.Hits)
	}
}

func TestDeterminism(t *testing.T) {
	w, err := workload.ByName("deepsjeng")
	if err != nil {
		t.Fatal(err)
	}
	tr := w.Generate(workload.Ref)
	e := Enclave{Trace: tr, Pages: w.ELRangePages(), Scheme: DFP}
	a, err := solo(e, SharedConfig{EPCPages: 2048})
	if err != nil {
		t.Fatal(err)
	}
	b, err := solo(e, SharedConfig{EPCPages: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same trace, same config, different results:\n%+v\n%+v", a, b)
	}
}

func TestDFPBeatsBaselineOnSequentialScan(t *testing.T) {
	// Enough compute per page for the preloads to complete ahead of the
	// application; in the channel-bound regime faults would persist as
	// in-flight waits instead.
	tr := seqTrace(1024, 1, 100000)
	base, err := solo(fixture(tr, Baseline), small)
	if err != nil {
		t.Fatal(err)
	}
	d, err := solo(fixture(tr, DFP), small)
	if err != nil {
		t.Fatal(err)
	}
	if d.Cycles >= base.Cycles {
		t.Fatalf("DFP (%d) not faster than baseline (%d) on a pure scan", d.Cycles, base.Cycles)
	}
	if d.Kernel.PreloadsStarted == 0 {
		t.Fatal("DFP started no preloads on a pure scan")
	}
	if d.Faults() >= base.Faults() {
		t.Fatalf("DFP faults (%d) not below baseline (%d)", d.Faults(), base.Faults())
	}
}

func TestSchemeFlags(t *testing.T) {
	tests := []struct {
		s    Scheme
		dfp  bool
		sip  bool
		name string
	}{
		{Baseline, false, false, "baseline"},
		{DFP, true, false, "DFP"},
		{DFPStop, true, false, "DFP-stop"},
		{SIP, false, true, "SIP"},
		{Hybrid, true, true, "SIP+DFP"},
	}
	for _, tt := range tests {
		if tt.s.UsesDFP() != tt.dfp || tt.s.UsesSIP() != tt.sip || tt.s.String() != tt.name {
			t.Errorf("scheme %d: got (%v, %v, %q), want (%v, %v, %q)",
				tt.s, tt.s.UsesDFP(), tt.s.UsesSIP(), tt.s.String(), tt.dfp, tt.sip, tt.name)
		}
	}
}

func TestSIPConvertsFaultsToNotifies(t *testing.T) {
	// A trace alternating a hot page and cold random pages at one site:
	// instrument that site and the cold accesses become notify loads.
	var tr []mem.Access
	for i := 0; i < 256; i++ {
		tr = append(tr, mem.Access{Site: 9, Page: mem.PageID(100 + i), Compute: 1000})
	}
	prof := &sip.Profile{Sites: map[mem.SiteID]*sip.SiteProfile{
		9: {Class3: 100},
	}}
	sel := sip.Select(prof, 0.05, 0)
	e := fixture(tr, SIP)
	e.Selection = sel
	res, err := solo(e, small)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults() != 0 {
		t.Fatalf("faults = %d, want 0 (all converted to notifies)", res.Faults())
	}
	if res.Kernel.NotifyLoads != 256 {
		t.Fatalf("notify loads = %d, want 256", res.Kernel.NotifyLoads)
	}
	if res.SIPChecks != 256 {
		t.Fatalf("checks = %d, want 256", res.SIPChecks)
	}

	// The same trace under baseline pays AEX+ERESUME per access more.
	base, err := solo(fixture(tr, Baseline), small)
	if err != nil {
		t.Fatal(err)
	}
	cm := mem.DefaultCostModel()
	saved := base.Cycles - res.Cycles
	wantSaved := 256 * (cm.AEX + cm.Eresume - cm.Notify - cm.BitmapCheck)
	if saved != wantSaved {
		t.Fatalf("SIP saved %d cycles, want %d", saved, wantSaved)
	}
}

func TestSIPCheckOverheadOnResidentPages(t *testing.T) {
	// All accesses hit one resident page: instrumentation is pure loss.
	var tr []mem.Access
	for i := 0; i < 100; i++ {
		tr = append(tr, mem.Access{Site: 9, Page: 5, Compute: 10})
	}
	prof := &sip.Profile{Sites: map[mem.SiteID]*sip.SiteProfile{9: {Class3: 1}}}
	e := fixture(tr, SIP)
	e.Selection = sip.Select(prof, 0.05, 0)
	res, err := solo(e, small)
	if err != nil {
		t.Fatal(err)
	}
	base, err := solo(fixture(tr, Baseline), small)
	if err != nil {
		t.Fatal(err)
	}
	// 100 checks of overhead, minus the AEX+ERESUME the notify path saved
	// on the single cold miss.
	cm := mem.DefaultCostModel()
	want := 100*cm.BitmapCheck - (cm.AEX + cm.Eresume - cm.Notify)
	if res.Cycles-base.Cycles != want {
		t.Fatalf("check overhead = %d, want %d", res.Cycles-base.Cycles, want)
	}
	if res.SIPPresent != 99 {
		t.Fatalf("SIPPresent = %d, want 99 (first access is the cold miss)", res.SIPPresent)
	}
}

func TestHybridUsesBothMechanisms(t *testing.T) {
	w, err := workload.ByName("mixed-blood")
	if err != nil {
		t.Fatal(err)
	}
	// Build the selection from the train input, like the experiments do.
	cl, err := sip.NewClassifier(2048, w.ELRangePages(), dfp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range w.Generate(workload.Train) {
		cl.Record(a.Site, a.Page)
	}
	sel := sip.Select(cl.Profile(), 0.05, 32)
	res, err := solo(Enclave{
		Trace: w.Generate(workload.Ref), Pages: w.ELRangePages(), Scheme: Hybrid, Selection: sel,
	}, SharedConfig{EPCPages: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernel.PreloadsStarted == 0 {
		t.Error("hybrid run started no DFP preloads")
	}
	if res.Kernel.NotifyLoads == 0 {
		t.Error("hybrid run issued no SIP notify loads")
	}
}

func TestEPCOfOnePage(t *testing.T) {
	tr := seqTrace(16, 2, 10)
	res, err := solo(Enclave{Trace: tr, Pages: 64, Scheme: DFP}, SharedConfig{EPCPages: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Every access must fault: one frame can hold only the current page,
	// and preloads into a single-frame EPC evict it immediately.
	if res.Faults() == 0 {
		t.Fatal("no faults with a single-frame EPC")
	}
}

func TestFootprintSmallerThanEPCIsNoop(t *testing.T) {
	tr := seqTrace(32, 4, 100)
	base, err := solo(fixture(tr, Baseline), small)
	if err != nil {
		t.Fatal(err)
	}
	d, err := solo(fixture(tr, DFPStop), small)
	if err != nil {
		t.Fatal(err)
	}
	// Only the 32 cold-start faults differ (DFP preloads during warmup);
	// after warmup both run identically, so DFP may only be faster, and
	// by at most the cold faults' full cost.
	if d.Cycles > base.Cycles {
		t.Fatalf("DFP-stop (%d) slower than baseline (%d) on an in-EPC workload", d.Cycles, base.Cycles)
	}
	cm := mem.DefaultCostModel()
	if base.Cycles-d.Cycles > 32*cm.FaultCost() {
		t.Fatalf("schemes diverge by %d cycles, more than the cold-start bound %d",
			base.Cycles-d.Cycles, 32*cm.FaultCost())
	}
}
