package sgxpreload

import (
	"fmt"

	"sgxpreload/internal/core"
	"sgxpreload/internal/dfp"
	"sgxpreload/internal/sim"
)

// Multi-enclave API. SGX shares the physical EPC among all enclaves on a
// machine (the paper's §5.6); RunShared co-simulates several workloads on
// one EPC and one load channel, with per-enclave preloading. Run and
// RunStream are its one-enclave cases: all three build their enclaves
// with EnclaveSpec.enclave and share the platform in run.

// EnclaveSpec configures one enclave of a shared run.
type EnclaveSpec struct {
	// Workload is the enclave's program.
	Workload Workload
	// Scheme is the enclave's preloading configuration.
	Scheme Scheme
	// Selection carries the enclave's SIP instrumentation sites (from
	// Profile); required when Scheme uses SIP.
	Selection *Selection
	// DFP overrides the predictor tunables (zero value = paper defaults).
	DFP DFPConfig
	// Predictor names this enclave's fault-history strategy for DFP-style
	// schemes: "multistream" (the paper's recognizer, also the default ""),
	// "stride", "markov", or "nextn". Unknown names fail the run.
	Predictor string
	// BackgroundReclaim enables this enclave's ksgxswapd-style watermark
	// reclaimer; its write-back bursts occupy the shared load channel.
	BackgroundReclaim bool
}

// SharedResult is one enclave's outcome of a shared run.
type SharedResult struct {
	// Name is the workload's name.
	Name string
	Result
}

// RunShared co-simulates the enclaves' Ref inputs on one shared EPC of
// cfg.EPCPages frames, each input streamed as in Run. Each enclave keeps
// its own fault history, preload queue, and counters; evictions and
// load-channel serialization are global, so the results expose EPC
// contention.
func RunShared(enclaves []EnclaveSpec, cfg Config) ([]SharedResult, error) {
	if len(enclaves) == 0 {
		return nil, fmt.Errorf("sgxpreload: RunShared needs at least one enclave")
	}
	encs := make([]sim.Enclave, len(enclaves))
	for i, e := range enclaves {
		if e.Workload == nil {
			return nil, fmt.Errorf("sgxpreload: enclave %d has no workload", i)
		}
		var err error
		if encs[i], err = e.enclave(e.Workload.Name(), e.Workload.Pages()); err != nil {
			return nil, err
		}
	}
	// Open the inputs only once every spec is valid, so a rejected run
	// leaves no generator behind.
	for i, e := range enclaves {
		encs[i].Stream = source(e.Workload, Ref)
	}
	return run(encs, cfg)
}

// enclave builds the engine enclave for the spec, named name over a
// virtual range of pages; the caller attaches its input. It is the one
// place the root API checks a spec, so Run, RunStream, and RunShared
// all reject an unknown scheme and a SIP or Hybrid scheme without a
// Selection.
func (e EnclaveSpec) enclave(name string, pages uint64) (sim.Enclave, error) {
	if e.Scheme < Baseline || e.Scheme > Hybrid {
		return sim.Enclave{}, fmt.Errorf("sgxpreload: enclave %s: unknown scheme %s", name, e.Scheme)
	}
	enc := sim.Enclave{
		Name:              name,
		Pages:             pages,
		Scheme:            sim.Scheme(e.Scheme),
		DFP:               dfpFromPublic(e.DFP),
		Predictor:         core.Kind(e.Predictor),
		BackgroundReclaim: e.BackgroundReclaim,
	}
	if enc.Scheme.UsesSIP() {
		if e.Selection == nil {
			return sim.Enclave{}, fmt.Errorf("sgxpreload: enclave %s: %s needs a Selection from Profile", name, e.Scheme)
		}
		enc.Selection = e.Selection.sel
	}
	return enc, nil
}

// run co-simulates the enclaves on cfg's platform — the EPC and cost
// model every root entry point shares — and converts the results.
func run(encs []sim.Enclave, cfg Config) ([]SharedResult, error) {
	cfg = cfg.normalize()
	res, err := sim.RunShared(encs, sim.SharedConfig{Costs: cfg.Costs, EPCPages: cfg.EPCPages})
	if err != nil {
		return nil, err
	}
	out := make([]SharedResult, len(res))
	for i, r := range res {
		out[i] = SharedResult{Name: r.Name, Result: resultFromSim(r.Result)}
	}
	return out, nil
}

// resultFromSim converts an internal result to the public form.
func resultFromSim(res sim.Result) Result {
	return Result{
		Scheme:          Scheme(res.Scheme),
		Cycles:          res.Cycles,
		Accesses:        res.Accesses,
		Hits:            res.Hits,
		Faults:          res.Kernel.DemandFaults,
		PreloadsStarted: res.Kernel.PreloadsStarted,
		PreloadsDropped: res.Kernel.PreloadsDropped,
		NotifyLoads:     res.Kernel.NotifyLoads,
		StopFired:       res.Kernel.DFPStopped,
	}
}

// dfpFromPublic maps the public tunables onto the internal config,
// filling paper defaults.
func dfpFromPublic(d DFPConfig) dfp.Config {
	out := dfp.DefaultConfig()
	if d.StreamListLen > 0 {
		out.StreamListLen = d.StreamListLen
	}
	if d.LoadLength > 0 {
		out.LoadLength = d.LoadLength
	}
	if d.StopSlack > 0 {
		out.StopSlack = d.StopSlack
	}
	return out
}
