// Package sim is the execution engine: it drives page-level access
// traces through the modeled enclaves under their preloading schemes
// and accumulates virtual time. Every run, solo or shared, is a list of
// Enclaves on one SharedConfig platform: RunShared drives it to
// completion, New and NewDynamic build the engine for incremental
// drivers, and a solo run is the one-enclave list read back as
// res[0].Result.
//
// The engine models the enclave application thread. All OS-side behavior
// (fault handling, preloading, eviction, the service thread) lives in
// package kernel; the engine's job is the enclave-side protocol: regular
// accesses, and — when SIP instruments the access site — the
// BIT_MAP_CHECK of the shared presence bitmap followed by a preload
// notification instead of a fault.
package sim

import (
	"fmt"

	"sgxpreload/internal/kernel"
)

// Scheme selects the preloading configuration of a run.
type Scheme int

// Schemes evaluated in the paper.
const (
	// Baseline: vanilla SGX driver, no preloading.
	Baseline Scheme = iota
	// DFP: dynamic fault-history-based preloading (§3.1).
	DFP
	// DFPStop: DFP with the global abort safety valve (§4.2).
	DFPStop
	// SIP: source-level instrumentation-based preloading (§3.2).
	SIP
	// Hybrid: DFP-stop and SIP together (§5.4).
	Hybrid
)

// String returns the paper's name for the scheme.
func (s Scheme) String() string {
	switch s {
	case Baseline:
		return "baseline"
	case DFP:
		return "DFP"
	case DFPStop:
		return "DFP-stop"
	case SIP:
		return "SIP"
	case Hybrid:
		return "SIP+DFP"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// SchemeByName resolves a scheme's flag/spec spelling (lower-cased:
// baseline, dfp, dfp-stop, sip, hybrid) to its Scheme. Both CLI flags
// and workload-spec files funnel through it, so the accepted names
// cannot drift between the two surfaces.
func SchemeByName(name string) (Scheme, error) {
	switch name {
	case "baseline":
		return Baseline, nil
	case "dfp":
		return DFP, nil
	case "dfp-stop", "dfpstop":
		return DFPStop, nil
	case "sip":
		return SIP, nil
	case "hybrid", "sip+dfp":
		return Hybrid, nil
	}
	return 0, fmt.Errorf("sim: unknown scheme %q (want baseline, dfp, dfp-stop, sip, or hybrid)", name)
}

// UsesDFP reports whether the scheme runs the fault-history predictor.
func (s Scheme) UsesDFP() bool { return s == DFP || s == DFPStop || s == Hybrid }

// UsesSIP reports whether the scheme consults an instrumentation
// selection.
func (s Scheme) UsesSIP() bool { return s == SIP || s == Hybrid }

// Result is the outcome of a run.
type Result struct {
	// Scheme echoes the configuration.
	Scheme Scheme
	// Cycles is the application's total virtual execution time.
	Cycles uint64
	// Accesses is the number of trace accesses executed.
	Accesses uint64
	// Hits counts accesses whose page was resident.
	Hits uint64
	// SIPChecks counts executed BIT_MAP_CHECKs; SIPPresent counts those
	// that found the page resident (pure overhead).
	SIPChecks  uint64
	SIPPresent uint64
	// PrefetchChecks and PrefetchIssued count oracle-inserted early
	// notifications (eager-SIP ablation only).
	PrefetchChecks uint64
	PrefetchIssued uint64
	// ComputeCycles is the trace's own computation time (scheme
	// independent).
	ComputeCycles uint64
	// Kernel carries the OS-side counters.
	Kernel kernel.Stats
}

// Faults returns the number of demand faults taken.
func (r Result) Faults() uint64 { return r.Kernel.DemandFaults }

// FaultCycles returns the time attributable to the enclave fault protocol.
func (r Result) FaultCycles() uint64 {
	return r.Kernel.AEXCycles + r.Kernel.LoadWaitCycles + r.Kernel.EresumeCycles
}
