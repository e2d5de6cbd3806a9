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
// via Stream (their generators run as coroutines that hand over bounded
// blocks of accesses, so each stream holds O(1) memory); custom
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
// unbounded generator for a finite run. A source with a Close method
// (a built-in benchmark's stream) is closed the moment the cap is
// reached, since a run treats the capped end as exhaustion.
func LimitStream(src AccessStream, n uint64) AccessStream {
	return publicStream{mem.Limit(internalStream{src}, n)}
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
	enc.Stream = internalStream{src}
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
		return internalStream{w.Stream(in)}
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

// internalStream converts a public stream's accesses on the fly;
// bounds are checked by the engine at execution time. Close reaches the
// source when it has one, so a run that ends early releases it.
type internalStream struct{ src AccessStream }

func (s internalStream) Next() (mem.Access, bool) {
	a, ok := s.src.Next()
	return a.internal(), ok
}

func (s internalStream) Close() {
	if c, ok := s.src.(mem.Closer); ok {
		c.Close()
	}
}

// publicStream is internalStream's inverse, over an engine stream.
type publicStream struct{ src mem.Stream }

// Next implements AccessStream.
func (s publicStream) Next() (Access, bool) {
	a, ok := s.src.Next()
	return publicAccess(a), ok
}

// Close releases the underlying stream when it holds resources.
func (s publicStream) Close() {
	if c, ok := s.src.(mem.Closer); ok {
		c.Close()
	}
}

// Stream implements Streamer for built-in benchmarks: the workload
// generator runs as a coroutine that hands over bounded blocks of
// accesses, so memory stays O(1) per stream. Close releases a stream
// abandoned before its end; draining it releases it too.
func (b builtin) Stream(in Input) AccessStream {
	return publicStream{b.w.Stream(workload.Input(in))}
}
