// Command perfbench is the repository benchmark. It runs one workload of
// the SGX paging simulator for a fixed host-time budget, checks every
// job's simulated output, and prints the metrics BENCHMARK.json names as
// the last line of standard output:
//
//	go run . --workload solo-grid --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics (host throughput, step
// time, set-up time, peak heap). With --trace 1 it runs half the budget
// untraced and half traced, and prints the per-layer metrics. See
// README.md for the workloads and the layer-to-metric map.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed the reference digests are recorded at.
const defaultSeed = 1

//go:embed reference.json
var referenceJSON []byte

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload to run (solo-grid, cohort-hits, fleet-spec, trace-roundtrip)")
	seed := fs.Uint64("seed", defaultSeed, "seed for the generated inputs and job order")
	seconds := fs.Float64("seconds", 10, "host seconds to measure for")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	record := fs.Bool("record-reference", false, "print the digest of every job at -seed as reference JSON and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	refs := map[string]string{}
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		fmt.Fprintf(stderr, "perfbench: reference digests: %v\n", err)
		return 1
	}
	if *record {
		return recordReference(*seed, stdout, stderr)
	}
	w, err := workloadByName(*wl)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if !(*seconds > 0) || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	o := &options{
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		refs:    refs,
		log:     stderr,
	}
	if o.trace {
		o.spanPath = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
	}
	res, err := run(o, w)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	meta, _ := json.Marshal(machine())
	fmt.Fprintf(stdout, "# machine %s\n", meta)
	for _, line := range res.notes {
		fmt.Fprintf(stdout, "# %s\n", line)
	}
	out, err := json.Marshal(res.result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type runOutput struct {
	result result
	notes  []string
}

// run sets the workload up, measures it and derives its metrics.
func run(o *options, w workloadDef) (*runOutput, error) {
	p, setupS, reps, parts, err := setUp(o, w)
	if err != nil {
		return nil, err
	}
	dg := &digests{refs: o.refs, seen: map[string]string{}}
	budget := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		u := measure(o, p, nil, budget, dg)
		return &runOutput{
			result: result{Correct: u.failed == 0, Attempted: u.attempted, Failed: u.failed,
				Metrics: finite(endToEnd(p, u, setupS))},
			notes: []string{fmt.Sprintf("%s seed=%d jobs=%d accesses=%d step_blocks=%d (x%d steps) setup_reps=%d",
				w.name, o.seed, u.attempted, u.accesses, len(u.samples), stepBlock, reps)},
		}, nil
	}
	u := measure(o, p, nil, budget/2, dg)
	tr := newTracer()
	tr.calibrate()
	t := measure(o, p, tr, budget/2, dg)
	m := finite(perLayer(u, t, parts))
	failed := u.failed + t.failed
	notes := []string{fmt.Sprintf("%s seed=%d setup_reps=%d untraced jobs=%d accesses=%d; traced jobs=%d accesses=%d",
		w.name, o.seed, reps, u.attempted, u.accesses, t.attempted, t.accesses)}
	notes = append(notes, fmt.Sprintf("tracer bias %.1f ns/span, cost %.1f ns/span (subtracted from layer times)", tr.bias, tr.cost))
	notes = append(notes, layerTable(m)...)
	if o.spanPath != "" {
		if err := tr.write(o.spanPath); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		notes = append(notes, "spans written to "+o.spanPath)
	}
	return &runOutput{
		result: result{Correct: failed == 0, Attempted: u.attempted + t.attempted, Failed: failed, Metrics: m},
		notes:  notes,
	}, nil
}

// layerTable renders the per-layer metrics as sorted "name value unit"
// lines for the human-readable part of the output.
func layerTable(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	lines := make([]string, len(names))
	for i, k := range names {
		lines[i] = fmt.Sprintf("%-32s %14.4f %s", k, m[k].Value, m[k].Unit)
	}
	return lines
}

// recordReference runs every job of every workload once, untraced, and
// prints their digests as the reference JSON the benchmark embeds.
func recordReference(seed uint64, stdout, stderr io.Writer) int {
	refs := map[string]string{}
	for _, w := range workloads {
		o := &options{seed: seed, log: stderr}
		p, err := w.setup(o)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		for _, j := range p.jobs {
			r := runJob(j, nil)
			if r.err == nil {
				r.err = r.out.checkErr
			}
			if r.err != nil {
				fmt.Fprintf(stderr, "perfbench: %s: %v\n", j.key, r.err)
				return 1
			}
			refs[j.key] = r.out.digest
		}
	}
	out, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// machineInfo is recorded with every result.
type machineInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func machine() machineInfo {
	m := machineInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}
