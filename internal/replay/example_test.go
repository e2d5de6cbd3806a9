package replay_test

import (
	"fmt"
	"strings"

	"sgxpreload/internal/obs"
	"sgxpreload/internal/replay"
)

// Example round-trips a recorded timeline through the JSONL trace format
// and shows that the derived Report survives bit-for-bit: replaying a
// trace file is equivalent to having watched the run live.
func Example() {
	// A run records its event timeline (here, two synthetic events; in
	// the engine, sim.SharedConfig.Hook = rec does this).
	rec := obs.NewRecorder()
	rec.Emit(obs.Event{T: 100, Kind: obs.KindFaultBegin, Page: 7})
	rec.Emit(obs.Event{T: 64_100, Kind: obs.KindFaultEnd, Page: 7, V1: 64_000})

	// Export the trace (this is what sgxsim -trace writes) ...
	var trace strings.Builder
	if err := rec.WriteJSONL(&trace); err != nil {
		panic(err)
	}

	// ... and load it back without re-simulating.
	events, err := replay.ReadJSONL(strings.NewReader(trace.String()))
	if err != nil {
		panic(err)
	}

	live := obs.BuildReport(rec.Events())
	replayed := obs.BuildReport(events)
	fmt.Println("events:", len(events))
	fmt.Println("report identical:", live.String() == replayed.String())
	// Output:
	// events: 2
	// report identical: true
}

// ExampleCompare diffs two timelines that diverge at their second event,
// the way sgxsim -diff compares a DFP trace against a DFP-stop trace.
func ExampleCompare() {
	a := []obs.Event{
		{T: 100, Kind: obs.KindFaultBegin, Page: 7},
		{T: 64_100, Kind: obs.KindFaultEnd, Page: 7, V1: 64_000},
	}
	b := []obs.Event{
		{T: 100, Kind: obs.KindFaultBegin, Page: 7},
		{T: 25_100, Kind: obs.KindFaultEnd, Page: 7, V1: 25_000},
	}
	d := replay.Compare(a, b)
	fmt.Println("identical:", d.Identical)
	fmt.Println("first divergence at event", d.First.Index)
	for _, dl := range d.Report {
		if dl.Name == "fault_latency_mean" {
			fmt.Printf("%s: %.0f vs %.0f\n", dl.Name, dl.A, dl.B)
		}
	}
	// Output:
	// identical: false
	// first divergence at event 1
	// fault_latency_mean: 64000 vs 25000
}
