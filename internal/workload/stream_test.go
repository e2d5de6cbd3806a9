package workload

import (
	"fmt"
	"runtime"
	"testing"

	"sgxpreload/internal/mem"
)

// counted is a test-local workload emitting n accesses, each drawing on
// the builder's rng so the stream must reproduce the generator's random
// sequence too.
func counted(n int) *Workload {
	return &Workload{Name: "counted", gen: func(_ Input, b *builder) {
		for i := 0; i < n; i++ {
			b.emit(mem.SiteID(i), mem.PageID(i), b.r.Uint64()%1000)
		}
	}}
}

// blockEnds lists the trace offsets at which the streaming generator
// hands over a block (1, 3, 7, 15, 31, then every blockLen), up to max.
func blockEnds(max int) []int {
	var ends []int
	for end, fill := 0, 1; end+fill <= max; fill = min(2*fill, blockLen) {
		end += fill
		ends = append(ends, end)
	}
	return ends
}

// boundaryLengths are trace lengths around every block boundary of the
// first few blocks, plus the empty trace and a length inside a block.
func boundaryLengths() []int {
	lens := []int{0, 1, 31, 32, 33, 100}
	for _, end := range blockEnds(4 * blockLen) {
		lens = append(lens, end-1, end, end+1)
	}
	return lens
}

// assertNoGoroutineGrowth fails if more goroutines exist than before.
func assertNoGoroutineGrowth(t *testing.T, before int, what string) {
	t.Helper()
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%s: %d goroutines left behind", what, after-before)
	}
}

func TestStreamRunsAheadByTheRamp(t *testing.T) {
	// The generator runs ahead of its consumer only to the end of the
	// current block: one access for the first Next (the engine's
	// lookahead at construction), then blocks doubling to blockLen.
	const n = 200
	generated := 0
	w := &Workload{Name: "ramp", gen: func(_ Input, b *builder) {
		for i := 0; i < n; i++ {
			generated++
			b.emit(0, mem.PageID(i), 1)
		}
	}}
	wantEnds := []int{1, 3, 7, 15, 31, 63, 95, 127}
	if got := blockEnds(127); fmt.Sprint(got) != fmt.Sprint(wantEnds) {
		t.Fatalf("block ends %v, want %v", got, wantEnds)
	}
	ends := blockEnds(n)
	s := w.Stream(Ref)
	defer s.(mem.Closer).Close()
	for k := 1; k <= n; k++ {
		if _, ok := s.Next(); !ok {
			t.Fatalf("stream ended at %d of %d", k-1, n)
		}
		want := n
		for _, end := range ends {
			if end >= k {
				want = end
				break
			}
		}
		if generated != want {
			t.Fatalf("after %d accesses read, %d generated, want %d", k, generated, want)
		}
	}
}

func TestStreamBlockBoundariesMatchGenerate(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, n := range boundaryLengths() {
		w := counted(n)
		want := w.Generate(Ref)
		if len(want) != n {
			t.Fatalf("n=%d: Generate produced %d accesses", n, len(want))
		}
		s := w.Stream(Ref)
		for i, exp := range want {
			got, ok := s.Next()
			if !ok {
				t.Fatalf("n=%d: stream ended at %d", n, i)
			}
			if got != exp {
				t.Fatalf("n=%d: access %d is %+v from stream, %+v materialized", n, i, got, exp)
			}
		}
		for k := 0; k < 3; k++ {
			if a, ok := s.Next(); ok {
				t.Fatalf("n=%d: drained stream yields %+v", n, a)
			}
		}
		s.(mem.Closer).Close() // Close after exhaustion is harmless
		if _, ok := s.Next(); ok {
			t.Fatalf("n=%d: stream revived by Close after exhaustion", n)
		}
	}
	assertNoGoroutineGrowth(t, before, "drained streams")
}

func TestStreamCloseAtEveryOffset(t *testing.T) {
	// Close after every prefix through the end of the first two full
	// blocks, then check the stream stays ended and releases its
	// coroutine.
	const n = 100
	w := counted(n)
	want := w.Generate(Ref)
	ends := blockEnds(n)
	limit := ends[6] // end of the second full block
	before := runtime.NumGoroutine()
	for k := 0; k <= limit; k++ {
		s := w.Stream(Ref)
		for i := 0; i < k; i++ {
			if got, ok := s.Next(); !ok || got != want[i] {
				t.Fatalf("close at %d: access %d is %+v/%v, want %+v", k, i, got, ok, want[i])
			}
		}
		c := s.(mem.Closer)
		c.Close()
		for j := 0; j < 3; j++ {
			if a, ok := s.Next(); ok {
				t.Fatalf("close at %d: closed stream yields %+v", k, a)
			}
		}
		c.Close()
		if _, ok := s.Next(); ok {
			t.Fatalf("close at %d: second Close revived the stream", k)
		}
	}
	assertNoGoroutineGrowth(t, before, "closed streams")
}

func TestStreamGeneratorPanicReachesConsumer(t *testing.T) {
	// A generator bug must surface at the consumer's Next, not vanish in
	// the recover that unwinds early-stopped generators. The panic fires
	// on the first access, mid-ramp, and mid-block after the ramp.
	for _, after := range []int{0, 2, 40} {
		w := &Workload{Name: "panicking", gen: func(_ Input, b *builder) {
			for i := 0; i < after; i++ {
				b.emit(0, mem.PageID(i), 1)
			}
			panic("generator bug")
		}}
		s := w.Stream(Ref)
		got, r := drainUntilPanic(s)
		if r != "generator bug" {
			t.Errorf("panic after %d accesses: consumer recovered %v, want the generator's panic", after, r)
		}
		if got > after {
			t.Errorf("panic after %d accesses: consumer read %d", after, got)
		}
	}
}

// drainUntilPanic pulls from s until it ends or panics, returning the
// accesses read and the recovered panic value.
func drainUntilPanic(s mem.Stream) (n int, r any) {
	defer func() { r = recover() }()
	for {
		if _, ok := s.Next(); !ok {
			return n, nil
		}
		n++
	}
}

// benchAccess keeps the benchmark's reads observable.
var benchAccess mem.Access

// BenchmarkWorkloadStream measures the streaming generator layer alone:
// one op is one access pulled from a small-working-set workload's Ref
// stream (the cohort-hits benchmark's five), reopening the stream when
// it ends.
func BenchmarkWorkloadStream(b *testing.B) {
	for _, w := range ByCategory(SmallWS) {
		b.Run(w.Name, func(b *testing.B) {
			b.ReportAllocs()
			s := w.Stream(Ref)
			for i := 0; i < b.N; i++ {
				a, ok := s.Next()
				if !ok {
					s = w.Stream(Ref)
					a, _ = s.Next()
				}
				benchAccess = a
			}
			s.(mem.Closer).Close()
		})
	}
}
