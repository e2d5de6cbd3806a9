package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sgxpreload/internal/fleet"
	"sgxpreload/internal/obs"
	"sgxpreload/internal/sim"
)

// contract is the part of BENCHMARK.json the output must match.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func tinyOptions(t *testing.T, traced bool) *options {
	o := &options{seed: defaultSeed, seconds: 0.05, trace: traced, tiny: true,
		refs: map[string]string{}, log: io.Discard}
	if traced {
		o.spanPath = filepath.Join(t.TempDir(), "spans.jsonl")
	}
	return o
}

// TestEveryWorkloadPrintsItsMetrics runs every workload at a tiny size,
// untraced and traced, and holds the output to BENCHMARK.json: every
// named metric with its unit, and nothing else. The traced run also
// holds the mirror engine to sim.Engine, job for job.
func TestEveryWorkloadPrintsItsMetrics(t *testing.T) {
	c := loadContract(t)
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !slices.Equal(names, have) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, have)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			res, err := run(tinyOptions(t, traced), w)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			r := res.result
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.name, traced, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestEndToEndMetricsAreNeverZero: the end-to-end metrics are compared
// as ratios of medians, so none may read 0.
func TestEndToEndMetricsAreNeverZero(t *testing.T) {
	for _, w := range workloads {
		res, err := run(tinyOptions(t, false), w)
		if err != nil {
			t.Fatal(err)
		}
		for k, m := range res.result.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %v", w.name, k, m.Value)
			}
		}
	}
}

// TestCorruptedDigestFailsTheJob: a job whose digest differs from the
// reference counts as failed, and the run as incorrect.
func TestCorruptedDigestFailsTheJob(t *testing.T) {
	w, _ := workloadByName("solo-grid")
	o := tinyOptions(t, false)
	o.refs = map[string]string{"solo-grid/lbm/DFP": strings.Repeat("0", 64)}
	res, err := run(o, w)
	if err != nil {
		t.Fatal(err)
	}
	if r := res.result; r.Correct || r.Failed == 0 {
		t.Fatalf("corrupted reference digest: correct=%v failed=%d", r.Correct, r.Failed)
	}
}

// TestBrokenInvariantFailsTheJob: each invariant check rejects a broken
// output, and a job carrying that error is counted as failed.
func TestBrokenInvariantFailsTheJob(t *testing.T) {
	bad := []sim.SharedResult{{Name: "x", Result: sim.Result{Accesses: 10, Hits: 7}}}
	bad[0].Kernel.DemandFaults = 2
	if checkResults(bad) == nil {
		t.Error("hits + faults != accesses passed")
	}
	fr := fleet.Result{Placement: []int{0, -1}, Shed: nil, Hosts: []fleet.HostReport{{EPCResident: 1, Resident: []int{1}}}}
	if checkFleet(fr, 2, 8) == nil {
		t.Error("admitted + shed != launches passed")
	}
	fr = fleet.Result{Placement: []int{0}, Hosts: []fleet.HostReport{{EPCResident: 3, Resident: []int{1}}}}
	if checkFleet(fr, 1, 8) == nil {
		t.Error("resident counts not summing to EPCResident passed")
	}
	events := []obs.Event{{T: 1, Kind: obs.KindFaultBegin, Page: 3}}
	var buf strings.Builder
	if err := obs.WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	written := []byte(buf.String())
	if err := checkTrace("jsonl", written, events, 1); err != nil {
		t.Fatalf("intact trace: %v", err)
	}
	if checkTrace("jsonl", written, events, 2) == nil {
		t.Error("parsed count != emitted count passed")
	}
	written[len(written)-2] ^= 1
	if checkTrace("jsonl", written, events, 1) == nil {
		t.Error("re-encoding mismatch passed")
	}

	ph := &phase{}
	dg := &digests{refs: map[string]string{}, seen: map[string]string{}}
	o := &options{log: io.Discard}
	ph.record(o, "k", jobRun{c: &runCtx{}, out: &outcome{checkErr: checkResults(bad)}}, dg, nil)
	ph.record(o, "k2", jobRun{c: &runCtx{}, out: &outcome{digest: "a"}}, dg, nil)
	ph.record(o, "k2", jobRun{c: &runCtx{}, out: &outcome{digest: "b"}}, dg, nil)
	if ph.attempted != 3 || ph.failed != 2 {
		t.Errorf("attempted %d failed %d, want 3 and 2", ph.attempted, ph.failed)
	}
}

// TestDigestCoversFleetDetail: the digest of a fleet.Result changes with
// every per-enclave result, the placement, the shed names and the
// resident and quota vectors, not only with the per-host summary that
// fleet.Result's String method prints.
func TestDigestCoversFleetDetail(t *testing.T) {
	mk := func() fleet.Result {
		enc := sim.SharedResult{Name: "a", Result: sim.Result{Cycles: 100, Accesses: 10, Hits: 9}}
		enc.Kernel.DemandFaults = 1
		return fleet.Result{
			Hosts: []fleet.HostReport{
				{Enclaves: []sim.SharedResult{enc}, EPCResident: 3, Resident: []int{3}, Quota: []int{4}, Faults: 1},
				{EPCResident: 0},
			},
			Placement: []int{0, -1},
			Shed:      []string{"b"},
			Faults:    1,
		}
	}
	want := newDigester().add(mk()).sum()
	for name, mutate := range map[string]func(*fleet.Result){
		"enclave cycles":  func(r *fleet.Result) { r.Hosts[0].Enclaves[0].Cycles++ },
		"enclave stats":   func(r *fleet.Result) { r.Hosts[0].Enclaves[0].Kernel.Evictions++ },
		"enclave name":    func(r *fleet.Result) { r.Hosts[0].Enclaves[0].Name = "c" },
		"placement":       func(r *fleet.Result) { r.Placement[0] = 1 },
		"shed name":       func(r *fleet.Result) { r.Shed[0] = "c" },
		"resident vector": func(r *fleet.Result) { r.Hosts[0].Resident[0] = 2 },
		"quota vector":    func(r *fleet.Result) { r.Hosts[0].Quota[0] = 5 },
		"fractional p99":  func(r *fleet.Result) { r.FaultP99 = 0.25 },
	} {
		r := mk()
		mutate(&r)
		if newDigester().add(r).sum() == want {
			t.Errorf("%s: digest unchanged", name)
		}
	}
}

// TestReferenceCoversDefaultSeed: every full-size job at the default
// seed has a recorded digest, so none escapes the reference check.
func TestReferenceCoversDefaultSeed(t *testing.T) {
	refs := map[string]string{}
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		p, err := w.setup(&options{seed: defaultSeed})
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range p.jobs {
			if refs[j.key] == "" {
				t.Errorf("no reference digest for %s", j.key)
			}
		}
	}
}

func TestShuffleIsSeeded(t *testing.T) {
	base := make([]int, 57)
	for i := range base {
		base[i] = i
	}
	a, b, c := slices.Clone(base), slices.Clone(base), slices.Clone(base)
	shuffle(a, 1)
	shuffle(b, 1)
	shuffle(c, 2)
	if !slices.Equal(a, b) || slices.Equal(a, c) || slices.Equal(a, base) {
		t.Fatalf("seed 1: %v / %v, seed 2: %v", a, b, c)
	}
}

func TestBadArgumentsExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "solo-grid", "--seconds", "0"},
		{"--workload", "solo-grid", "--trace", "2"},
	} {
		if code := cli(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
	}
}
