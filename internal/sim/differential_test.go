package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"sgxpreload/internal/dfp"
	"sgxpreload/internal/obs"
	"sgxpreload/internal/sip"
	"sgxpreload/internal/workload"
)

// Differential tests: the unified engine must reproduce the pre-refactor
// engines byte for byte. Three artifacts are compared per (scheme,
// benchmark) cell — the full Result struct, the exported JSONL event
// timeline, and the Report re-derived from that timeline — first between
// a solo cell's materialized and streamed inputs, and then against
// golden hashes captured from the seed engines before the unification.

// diffBenches are the three representative benchmarks: one regular
// (lbm), one irregular (deepsjeng), one fault-dominated stream
// (microbenchmark). All three are instrumentable, so SIP and Hybrid run
// everywhere.
var diffBenches = []string{"lbm", "deepsjeng", "microbenchmark"}

var diffSchemes = []Scheme{Baseline, DFP, DFPStop, SIP, Hybrid}

// diffSelection builds the SIP instrumentation-site set exactly the way
// cmd/sgxsim does (threshold 5%, min 32 samples, 2048-page EPC).
func diffSelection(t testing.TB, w *workload.Workload) *sip.Selection {
	t.Helper()
	cl, err := sip.NewClassifier(2048, w.ELRangePages(), dfp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range w.Generate(workload.Train) {
		cl.Record(a.Site, a.Page)
	}
	return sip.Select(cl.Profile(), 0.05, 32)
}

// diffArtifacts captures the three compared artifacts of one run.
type diffArtifacts struct {
	result string // full Result dump, every field
	jsonl  string // exported event timeline
	report string // metrics re-derived from the timeline
}

func (a diffArtifacts) hash() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n%s", a.result, a.jsonl, a.report)
	return hex.EncodeToString(h.Sum(nil))
}

// diffEnclave is one cell's enclave: bench under scheme over its
// materialized Ref trace, with the cmd/sgxsim selection for SIP schemes.
func diffEnclave(t testing.TB, bench string, scheme Scheme) Enclave {
	t.Helper()
	w, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	e := Enclave{
		Name:   w.Name,
		Trace:  w.Generate(workload.Ref),
		Pages:  w.ELRangePages(),
		Scheme: scheme,
	}
	if scheme.UsesSIP() {
		e.Selection = diffSelection(t, w)
	}
	return e
}

// runCell runs the enclaves on the cells' 2048-frame platform with a
// recorder attached and captures the three artifacts; result renders
// the run's outcome.
func runCell(t testing.TB, encs []Enclave, result func([]SharedResult) any) diffArtifacts {
	t.Helper()
	rec := obs.NewRecorder()
	res, err := RunShared(encs, SharedConfig{EPCPages: 2048, Hook: rec})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := rec.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	return diffArtifacts{
		result: fmt.Sprintf("%#v", result(res)),
		jsonl:  b.String(),
		report: obs.BuildReport(rec.Events()).String(),
	}
}

// soloCell runs one (scheme, benchmark) cell as a single-enclave run,
// fed the materialized Ref trace or, when streamed, the generator
// coroutine.
func soloCell(t testing.TB, scheme Scheme, bench string, streamed bool) diffArtifacts {
	t.Helper()
	e := diffEnclave(t, bench, scheme)
	if streamed {
		w, err := workload.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		e.Trace, e.Stream = nil, w.Stream(workload.Ref)
	}
	return runCell(t, []Enclave{e}, func(res []SharedResult) any { return res[0].Result })
}

// multiCell runs a fixed two-enclave contention scenario; its golden
// hash pins the multi-enclave schedule across the refactor.
func multiCell(t testing.TB, schemeA, schemeB Scheme, benchA, benchB string) diffArtifacts {
	t.Helper()
	encs := []Enclave{diffEnclave(t, benchA, schemeA), diffEnclave(t, benchB, schemeB)}
	return runCell(t, encs, func(res []SharedResult) any { return res })
}

// TestDifferentialRunVsShared: a solo cell fed its materialized trace
// and the same cell fed the generator stream must be byte-identical in
// all three artifacts, for every scheme x benchmark — the engine cannot
// tell its input paths apart.
func TestDifferentialRunVsShared(t *testing.T) {
	for _, bench := range diffBenches {
		for _, scheme := range diffSchemes {
			t.Run(bench+"/"+scheme.String(), func(t *testing.T) {
				slice := soloCell(t, scheme, bench, false)
				streamed := soloCell(t, scheme, bench, true)
				if slice.result != streamed.result {
					t.Errorf("Result diverges:\n  slice  %s\n  stream %s",
						slice.result, streamed.result)
				}
				if slice.jsonl != streamed.jsonl {
					t.Errorf("JSONL trace diverges (%d vs %d bytes): %s",
						len(slice.jsonl), len(streamed.jsonl),
						firstDiffLine(slice.jsonl, streamed.jsonl))
				}
				if slice.report != streamed.report {
					t.Errorf("replayed Report diverges:\n--- slice ---\n%s\n--- stream ---\n%s",
						slice.report, streamed.report)
				}
			})
		}
	}
}

// firstDiffLine locates the first line where two JSONL exports differ.
func firstDiffLine(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("first divergence at line %d:\n  a: %s\n  b: %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("one trace is a prefix of the other (%d vs %d lines)", len(la), len(lb))
}

// seedGolden pins sha256(Result dump + JSONL + Report) per cell, captured
// from the pre-unification engines (the seed's independent Run and
// RunShared loops) on this repository's fixed benchmark generators. Any
// behavioral drift in the unified engine shows up as a hash mismatch.
var seedGolden = map[string]string{
	"run/lbm/baseline":                       "d514a56ffb6774dcf0ab58afbaa6c3c06e6d7981b31bfc497ad70604230d0a69",
	"run/lbm/DFP":                            "1ceead978407cfe8cf9f86d04e72822a496ce35204c52946398f906d669b59db",
	"run/lbm/DFP-stop":                       "517862a75144055232142b15db0b1370d991dac57a1a9e24cf2cad966ed6c8bb",
	"run/lbm/SIP":                            "817ea2ec2e7ff0f142e4e7c0c382f10f38c0fbc6830f588caacf70908f9084e3",
	"run/lbm/SIP+DFP":                        "6e1692b1e75141f462bd8b19628fec9a03d617dd62fc4f6f240fed930f2a606e",
	"run/deepsjeng/baseline":                 "3f1f0cab0406eb628dcd658644bbcc54f5614deea58e7e80845221bc25a80854",
	"run/deepsjeng/DFP":                      "7596ab2476e11d8c7d1e64c3f04040d605e11b003dcfe919469d0ca55db93b18",
	"run/deepsjeng/DFP-stop":                 "8c91f7978c476e0e4c01eb70354921442bcd04feb1a0e74d009a7343a1c783e9",
	"run/deepsjeng/SIP":                      "57ee7f050a9b5c15165ec5cf6b5ff62b6759d9959548100cbcb970836e7de602",
	"run/deepsjeng/SIP+DFP":                  "5758a5f6a95c10490f0ff4dc2345110960c73d2092d6e5c5b97aabe2beb81a8c",
	"run/microbenchmark/baseline":            "655ceaf072c667f9f2cd1f37bc0d478d89fbdfb6d4bcedbdb8b8d750d7bd6274",
	"run/microbenchmark/DFP":                 "444c8796563543bc54f28712d3f9a6c3f28947e695830a7160c6cc466ac4dee1",
	"run/microbenchmark/DFP-stop":            "ccc444b3a5c1e2ef58946e1a2c8a3d8d10ed83d711b44bfcd877da68d33e56c9",
	"run/microbenchmark/SIP":                 "cde70a731cd6a61af5bd9e9b7edbe3a2f8da2429215167e495af506a3468abc4",
	"run/microbenchmark/SIP+DFP":             "855c1a2eec493040c2e242051610842111b77aa8459522a6dc25553ec8910839",
	"shared/lbm:DFP-stop+deepsjeng:baseline": "c7fc9424727b5b7506eafbf6b6c23e6c4052daa5c8396b3691684666cb9ffe9d",
	"shared/microbenchmark:DFP+lbm:SIP":      "766c52cc05e3362bdcbe58987d3600f5552815a35ddfe8558890502017ec2496",
	"shared/tiebreak-E64":                    "bd9bcf68906126a5fb43281f7a21869f1cc3debc249d1159dc717949d7192403",
}

// TestGoldenVsSeed compares the current engine against the pinned seed
// hashes. SGXSIM_GENGOLDEN=1 prints the map instead (used once, on the
// seed, to capture the pins).
func TestGoldenVsSeed(t *testing.T) {
	gen := os.Getenv("SGXSIM_GENGOLDEN") == "1"
	check := func(key string, a diffArtifacts) {
		if gen {
			fmt.Printf("\t%q: %q,\n", key, a.hash())
			return
		}
		want, ok := seedGolden[key]
		if !ok {
			t.Errorf("no pinned golden for %s", key)
			return
		}
		if got := a.hash(); got != want {
			t.Errorf("%s: hash %s != pinned seed %s (engine output drifted)", key, got, want)
		}
	}
	for _, bench := range diffBenches {
		for _, scheme := range diffSchemes {
			check("run/"+bench+"/"+scheme.String(), soloCell(t, scheme, bench, false))
		}
	}
	check("shared/lbm:DFP-stop+deepsjeng:baseline",
		multiCell(t, DFPStop, Baseline, "lbm", "deepsjeng"))
	check("shared/microbenchmark:DFP+lbm:SIP",
		multiCell(t, DFP, SIP, "microbenchmark", "lbm"))
	check("shared/tiebreak-E64", tieBreakCell(t, 64))
}
