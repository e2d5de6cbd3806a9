// Streaming demonstrates the pull-based engine: accesses are generated
// on demand and consumed one at a time, so peak memory is independent of
// trace length. A materialized 5M-access trace would occupy ~200 MB;
// streamed, the run needs only the engine's working state, which is how
// arbitrarily long (or unbounded) workloads are simulated.
package main

import (
	"fmt"
	"log"
	"runtime"

	"sgxpreload"
)

func main() {
	// An unbounded synthetic workload: a sequential sweep over a 256 MiB
	// working set with a periodic strided revisit. The generator holds one
	// counter — the trace never exists in memory.
	const pages = 1 << 16
	gen := func() sgxpreload.AccessStream {
		var i uint64
		return sgxpreload.StreamFunc(func() (sgxpreload.Access, bool) {
			i++
			a := sgxpreload.Access{Compute: 2500}
			if i%17 == 0 {
				a.Page = (i * 7919) % pages
			} else {
				a.Page = i % pages
			}
			return a, true
		})
	}

	// Bound the generator for a finite run and compare schemes. Each run
	// pulls its own fresh stream.
	const accesses = 5_000_000
	cfg := sgxpreload.DefaultConfig()
	base, err := sgxpreload.RunStream(sgxpreload.LimitStream(gen(), accesses), pages, cfg)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Scheme = sgxpreload.DFPStop
	dfp, err := sgxpreload.RunStream(sgxpreload.LimitStream(gen(), accesses), pages, cfg)
	if err != nil {
		log.Fatal(err)
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Printf("%d accesses streamed through a %d-page enclave (heap in use: %.1f MiB)\n",
		accesses, pages, float64(ms.HeapInuse)/(1<<20))
	fmt.Printf("  baseline: %d cycles, %d faults\n", base.Cycles, base.Faults)
	fmt.Printf("  DFP-stop: %d cycles, %d faults, %d preloads (%+.1f%%)\n",
		dfp.Cycles, dfp.Faults, dfp.PreloadsStarted, sgxpreload.ImprovementPct(dfp, base))

	// Run streams built-in benchmarks the same way: their generators run
	// as coroutines suspended between accesses.
	w, err := sgxpreload.Benchmark("lbm")
	if err != nil {
		log.Fatal(err)
	}
	res, err := sgxpreload.Run(w, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lbm streamed under %s: %d cycles, %d faults\n", res.Scheme, res.Cycles, res.Faults)
}
