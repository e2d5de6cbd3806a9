// Package experiments reproduces the paper's evaluation (§5): one runner
// per table and figure, each returning the same rows or series the paper
// reports. Absolute cycle counts differ from the authors' testbed — the
// substrate is a simulator — but the shapes (who wins, by roughly what
// factor, where the crossovers and sweet spots fall) are the reproduction
// targets; EXPERIMENTS.md records paper-versus-measured for each.
//
// Per the paper's §5.1, after Figure 8 the abort safety valve "is
// integrated into the DFP and enabled by default", so every experiment
// after Figure 8 uses DFP-stop as its DFP arm; Figure 8 itself compares
// plain DFP against DFP-stop.
package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"sgxpreload/internal/dfp"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/sim"
	"sgxpreload/internal/sip"
	"sgxpreload/internal/workload"
)

// Params are the experiment-wide settings. The defaults scale the paper's
// platform (≈24576 usable EPC pages, benchmarks with up to gigabyte
// footprints) down by ~12x while preserving every footprint-to-EPC ratio.
type Params struct {
	// EPCPages is the EPC capacity used by every run.
	EPCPages int
	// Threshold is the SIP irregular-access-ratio instrumentation
	// threshold (the paper's sweet spot is 5%, Figure 9).
	Threshold float64
	// MinSiteAccesses filters sites with too few profile samples.
	MinSiteAccesses uint64
	// DFP is the predictor operating point (stream list 30, preload
	// distance 4 — the values the paper settles on in §5.1).
	DFP dfp.Config
}

// Default returns the standard parameters.
func Default() Params {
	return Params{
		EPCPages:        2048,
		Threshold:       0.05,
		MinSiteAccesses: 32,
		DFP:             dfp.DefaultConfig(),
	}
}

// Runner executes experiment runs with caching: generated traces and SIP
// profiles are deterministic per (workload, input), so sweeps reuse them.
// The caches are single-flight and safe for concurrent use, and every
// sweep-style experiment fans its cells out across the runner's worker
// pool (SetParallelism); results are keyed by cell index, so the output
// is byte-identical at any worker count.
type Runner struct {
	p       Params
	workers int

	progressMu sync.Mutex
	progress   Progress

	traces     *memo[traceKey, []mem.Access]
	selections *memo[string, *sip.Selection]
	profiles   *memo[string, *sip.Profile]
}

type traceKey struct {
	name string
	in   workload.Input
}

// NewRunner returns a Runner with the given parameters and a worker pool
// sized to GOMAXPROCS.
func NewRunner(p Params) *Runner {
	return &Runner{
		p:          p,
		workers:    runtime.GOMAXPROCS(0),
		traces:     newMemo[traceKey, []mem.Access](),
		selections: newMemo[string, *sip.Selection](),
		profiles:   newMemo[string, *sip.Profile](),
	}
}

// Params returns the runner's parameters.
func (r *Runner) Params() Params { return r.p }

// SetParallelism bounds the worker pool for sweeps: 1 is fully
// sequential, n <= 0 resets to GOMAXPROCS. Tables and figures are
// identical at every setting; only wall-clock time changes.
func (r *Runner) SetParallelism(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	r.workers = n
}

// Parallelism returns the current worker-pool bound.
func (r *Runner) Parallelism() int { return r.workers }

// SetProgress installs a per-cell completion callback (nil disables).
// Calls are serialized by the runner.
func (r *Runner) SetProgress(p Progress) { r.progress = p }

// reportCell forwards one completed cell to the progress callback.
func (r *Runner) reportCell(done, total int, label string) {
	if r.progress == nil {
		return
	}
	r.progressMu.Lock()
	defer r.progressMu.Unlock()
	if r.progress != nil {
		r.progress(done, total, label)
	}
}

// Trace returns the (cached) access trace of a workload input. The fill
// is single-flight: concurrent sweep workers requesting the same trace
// share one generation.
func (r *Runner) Trace(w *workload.Workload, in workload.Input) []mem.Access {
	t, _ := r.traces.get(traceKey{w.Name, in}, func() ([]mem.Access, error) {
		return w.Generate(in), nil
	})
	return t
}

// Profile returns the (cached) SIP profile of a workload, built by
// classifying its train-input trace.
func (r *Runner) Profile(w *workload.Workload) (*sip.Profile, error) {
	return r.profiles.get(w.Name, func() (*sip.Profile, error) {
		cl, err := sip.NewClassifier(r.p.EPCPages, w.ELRangePages(), r.p.DFP)
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", w.Name, err)
		}
		for _, a := range r.Trace(w, workload.Train) {
			cl.Record(a.Site, a.Page)
		}
		return cl.Profile(), nil
	})
}

// Selection returns the (cached) instrumentation-site selection of a
// workload at the runner's threshold.
func (r *Runner) Selection(w *workload.Workload) (*sip.Selection, error) {
	return r.selections.get(w.Name, func() (*sip.Selection, error) {
		p, err := r.Profile(w)
		if err != nil {
			return nil, err
		}
		return sip.Select(p, r.p.Threshold, r.p.MinSiteAccesses), nil
	})
}

// SelectionAt returns an uncached selection at an explicit threshold
// (for the Figure 9 sweep).
func (r *Runner) SelectionAt(w *workload.Workload, threshold float64) (*sip.Selection, error) {
	p, err := r.Profile(w)
	if err != nil {
		return nil, err
	}
	return sip.Select(p, threshold, r.p.MinSiteAccesses), nil
}

// Run executes workload w's ref input under the given scheme.
func (r *Runner) Run(w *workload.Workload, scheme sim.Scheme) (sim.Result, error) {
	return r.run(w, sim.Enclave{Scheme: scheme}, sim.SharedConfig{})
}

// RunDFP is Run with an explicit DFP configuration (for parameter sweeps).
func (r *Runner) RunDFP(w *workload.Workload, scheme sim.Scheme, d dfp.Config) (sim.Result, error) {
	return r.run(w, sim.Enclave{Scheme: scheme, DFP: d}, sim.SharedConfig{})
}

// run executes e as a solo run on platform p — the one path every
// runner cell takes. It labels e with w's name and ELRANGE, and fills
// in from the runner whatever e and p leave zero: w's cached Ref trace,
// the DFP operating point, the EPC size and, for SIP schemes, w's
// cached selection. w may be nil for a synthetic trace that e carries
// with its own range.
func (r *Runner) run(w *workload.Workload, e sim.Enclave, p sim.SharedConfig) (sim.Result, error) {
	if w != nil {
		e.Name, e.Pages = w.Name, w.ELRangePages()
		if e.Trace == nil {
			e.Trace = r.Trace(w, workload.Ref)
		}
		if e.Scheme.UsesSIP() && e.Selection == nil {
			if !w.Instrumentable {
				return sim.Result{}, fmt.Errorf("experiments: %s is not instrumentable (%s)", w.Name, w.Language)
			}
			sel, err := r.Selection(w)
			if err != nil {
				return sim.Result{}, err
			}
			e.Selection = sel
		}
	}
	if e.DFP == (dfp.Config{}) {
		e.DFP = r.p.DFP
	}
	if p.EPCPages == 0 {
		p.EPCPages = r.p.EPCPages
	}
	res, err := sim.RunShared([]sim.Enclave{e}, p)
	if err != nil {
		return sim.Result{}, fmt.Errorf("experiments: %s/%s: %w", e.Name, e.Scheme, err)
	}
	return res[0].Result, nil
}

// RunAll executes the full (workload, scheme) grid in parallel on the
// runner's worker pool and returns results indexed [i][j] to match
// names[i] and schemes[j]. Cells are independent simulations; the shared
// trace/profile caches fill single-flight, and results land by index, so
// RunAll(names, schemes) is deterministic at any parallelism.
func (r *Runner) RunAll(names []string, schemes []sim.Scheme) ([][]sim.Result, error) {
	cells, err := sweep(r, "grid", len(names)*len(schemes),
		func(i int) string {
			return names[i/len(schemes)] + "/" + schemes[i%len(schemes)].String()
		},
		func(i int) (sim.Result, error) {
			w, err := mustWorkload(names[i/len(schemes)])
			if err != nil {
				return sim.Result{}, err
			}
			return r.Run(w, schemes[i%len(schemes)])
		})
	if err != nil {
		return nil, err
	}
	out := make([][]sim.Result, len(names))
	for i := range names {
		out[i] = cells[i*len(schemes) : (i+1)*len(schemes)]
	}
	return out, nil
}

// mustWorkload resolves a benchmark name; experiment sets are static, so a
// missing name is a programming error surfaced as an error to the caller.
func mustWorkload(name string) (*workload.Workload, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	return w, nil
}

// LargeWorkingSet lists the benchmarks the DFP study (Figures 7 and 8)
// covers: every Table 1 large-footprint row plus the microbenchmark.
func LargeWorkingSet() []string {
	return []string{
		"bwaves", "lbm", "wrf", "microbenchmark",
		"roms", "mcf", "deepsjeng", "omnetpp", "xz",
	}
}

// SIPSet lists the benchmarks of the SIP study (Figure 10): the C/C++
// large-footprint benchmarks the paper's instrumenter supports, plus mcf
// from SPEC CPU2006.
func SIPSet() []string {
	return []string{"mcf.2006", "mcf", "xz", "deepsjeng", "lbm", "microbenchmark"}
}

// Figure7Set lists the seven large-footprint benchmarks of the preload-
// distance sweep.
func Figure7Set() []string {
	return []string{"bwaves", "lbm", "wrf", "roms", "mcf", "deepsjeng", "omnetpp"}
}
