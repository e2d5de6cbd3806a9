package sgxpreload

import (
	"fmt"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/sim"
	"sgxpreload/internal/workload"
)

// Streaming API. Every run pulls its accesses one at a time, so peak
// memory is independent of trace length — hour-long or synthetic
// unbounded workloads simulate in O(1) space. Built-in benchmarks stream
// via Stream (their generators run as suspended coroutines); custom
// workloads implement Streamer, or hand any AccessStream to RunStream.

// AccessStream is a pull-based access source: Next returns the next
// access, or ok=false when the trace is exhausted. Implementations need
// not be restartable; obtain a fresh stream per run.
type AccessStream interface {
	Next() (Access, bool)
}

// Streamer is optionally implemented by workloads that can produce
// their trace incrementally instead of materializing it. Built-in
// benchmarks implement it.
type Streamer interface {
	// Stream returns a fresh pull-based source over the same accesses
	// Trace(in) would return.
	Stream(in Input) AccessStream
}

// StreamFunc adapts a function to AccessStream.
type StreamFunc func() (Access, bool)

// Next implements AccessStream.
func (f StreamFunc) Next() (Access, bool) { return f() }

// LimitStream caps src at n accesses — the standard way to bound an
// unbounded generator for a finite run.
func LimitStream(src AccessStream, n uint64) AccessStream {
	var seen uint64
	return StreamFunc(func() (Access, bool) {
		if seen >= n {
			return Access{}, false
		}
		a, ok := src.Next()
		if ok {
			seen++
		}
		return a, ok
	})
}

// RunStream replays accesses pulled from src under cfg, on an enclave of
// the given virtual range. Accesses outside the range fail the run, as
// with a workload's trace. The engine looks one access ahead;
// everything else about the simulation — scheme wiring, cost model,
// results — is identical to Run.
func RunStream(src AccessStream, pages uint64, cfg Config) (Result, error) {
	if src == nil {
		return Result{}, fmt.Errorf("sgxpreload: RunStream needs a stream")
	}
	if pages == 0 {
		return Result{}, fmt.Errorf("sgxpreload: RunStream needs the enclave page range")
	}
	enc, err := EnclaveSpec{Scheme: cfg.Scheme, Selection: cfg.Selection, DFP: cfg.DFP}.enclave("stream", pages)
	if err != nil {
		return Result{}, err
	}
	enc.Stream = toInternalStream(src)
	res, err := run([]sim.Enclave{enc}, cfg)
	if err != nil {
		return Result{}, err
	}
	return res[0].Result, nil
}

// source opens the workload's input as an engine stream: a built-in
// benchmark's generator directly, a Streamer's stream converted on the
// fly, and otherwise a cursor over Trace(in). Pages are checked by the
// consumer.
func source(w Workload, in Input) mem.Stream {
	switch w := w.(type) {
	case builtin:
		return w.w.Stream(workload.Input(in))
	case Streamer:
		return toInternalStream(w.Stream(in))
	}
	accs := w.Trace(in)
	return mem.StreamFunc(func() (mem.Access, bool) {
		if len(accs) == 0 {
			return mem.Access{}, false
		}
		a := accs[0]
		accs = accs[1:]
		return a.internal(), true
	})
}

// toInternalStream converts public accesses on the fly; bounds are
// checked by the engine at execution time.
func toInternalStream(src AccessStream) mem.Stream {
	return mem.StreamFunc(func() (mem.Access, bool) {
		a, ok := src.Next()
		return a.internal(), ok
	})
}

// Stream implements Streamer for built-in benchmarks: the workload
// generator runs as a coroutine suspended between accesses.
func (b builtin) Stream(in Input) AccessStream {
	src := b.w.Stream(workload.Input(in))
	return StreamFunc(func() (Access, bool) {
		a, ok := src.Next()
		return publicAccess(a), ok
	})
}
