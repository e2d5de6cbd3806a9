package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"time"

	"sgxpreload/internal/dfp"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/obs"
)

// layer indexes the per-layer accumulators of a traced run. The names
// are the repository's module names; layerName gives the metric prefix.
type layer int

const (
	layerPull layer = iota
	layerTouch
	layerFault
	layerScan
	layerSync
	layerNotify
	layerOnFault
	layerEmit
	numLayers
)

var layerName = [numLayers]string{
	layerPull:    "workload.pull",
	layerTouch:   "kernel.touch",
	layerFault:   "kernel.fault",
	layerScan:    "kernel.scan",
	layerSync:    "kernel.sync",
	layerNotify:  "kernel.notify",
	layerOnFault: "dfp.onfault",
	layerEmit:    "obs.emit",
}

// topLevel lists the layers whose spans sit directly under a simulated
// step; their sum per access is what the traced run attributes, and
// the untraced step time minus that sum is sim.unattributed_ns.
// dfp.onfault nests inside kernel.fault and obs.emit inside the kernel
// calls, so neither is added again.
var topLevel = []layer{layerPull, layerTouch, layerFault, layerScan, layerSync, layerNotify}

// span is one recorded interval, in ns since the tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxInnerSpans caps the per-call spans kept in memory: a traced run
// makes tens of millions of layer calls, so only the first ones are kept
// as raw spans; the per-layer totals cover every call.
const maxInnerSpans = 1 << 14

// noLayer marks that no layer span is open.
const noLayer layer = -1

// tracer accumulates per-layer time and call counts, and keeps the
// outer spans (jobs, set-up phases, whole-layer calls such as fleet.Run)
// plus a bounded sample of inner spans in memory until the run ends.
//
// Reading the clock is not free, so a layer's raw time overstates it:
// every span carries the part of its own clock reads that falls inside
// it (bias), and every span nested in it costs its parent a whole
// begin/end pair (cost). calibrate measures both; net subtracts them.
type tracer struct {
	epoch  time.Time
	ns     [numLayers]int64
	calls  [numLayers]int64
	nested [numLayers]int64 // spans opened inside a span of this layer
	cur    layer
	spans  []span
	inner  int
	job    int // span id of the job being traced, the parent of inner spans

	bias, cost float64 // ns per span, from calibrate
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), job: -1, cur: noLayer} }

// begin opens a span of layer l.
func (t *tracer) begin(l layer) (time.Time, layer) {
	prev := t.cur
	t.cur = l
	return time.Now(), prev
}

// end closes the span begin opened and charges it to l.
func (t *tracer) end(l layer, t0 time.Time, prev layer) {
	end := time.Now()
	t.ns[l] += end.Sub(t0).Nanoseconds()
	t.calls[l]++
	t.cur = prev
	if prev != noLayer {
		t.nested[prev]++
	}
	if t.inner < maxInnerSpans {
		t.inner++
		t.spans = append(t.spans, span{ID: len(t.spans), Parent: t.job, Name: layerName[l],
			Start: t0.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	}
}

// calibrate measures the tracer's own bias and cost per span on empty
// spans, keeping the lowest of a few rounds.
func (t *tracer) calibrate() {
	const n = 200_000
	t.bias, t.cost = math.Inf(1), math.Inf(1)
	for round := 0; round < 3; round++ {
		d := newTracer()
		d.inner = maxInnerSpans
		start := time.Now()
		for i := 0; i < n; i++ {
			t0, prev := d.begin(layerTouch)
			d.end(layerTouch, t0, prev)
		}
		t.cost = min(t.cost, float64(time.Since(start).Nanoseconds())/n)
		t.bias = min(t.bias, float64(d.ns[layerTouch])/n)
	}
}

// net is layer l's time with the tracer's own share removed.
func (t *tracer) net(l layer) float64 {
	return float64(t.ns[l]) - float64(t.calls[l])*t.bias - float64(t.nested[l])*t.cost
}

// outer records a named span from t0 to now under parent and returns
// its id.
func (t *tracer) outer(name string, parent int, t0 time.Time) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: t0.Sub(t.epoch).Nanoseconds(), End: time.Since(t.epoch).Nanoseconds()})
	return id
}

// snapshot returns the per-layer call counts so far.
func (t *tracer) snapshot() [numLayers]int64 { return t.calls }

// write dumps the spans, one JSON object per line, to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedStream wraps an enclave's access stream and charges every pull
// to workload.pull.
type timedStream struct {
	src mem.Stream
	tr  *tracer
}

func (s *timedStream) Next() (mem.Access, bool) {
	t0, prev := s.tr.begin(layerPull)
	a, ok := s.src.Next()
	s.tr.end(layerPull, t0, prev)
	return a, ok
}

func (s *timedStream) Close() {
	if c, ok := s.src.(mem.Closer); ok {
		c.Close()
	}
}

// timedPredictor wraps the DFP predictor handed to the kernel as
// kernel.Config.Predictor: OnFault is charged to dfp.onfault, and the
// preload/accessed notifications are counted for dfp.accuracy. The
// embedded predictor's SetHook stays visible, so the kernel installs
// the same stream-lifecycle hook as on a bare predictor.
type timedPredictor struct {
	*dfp.Predictor
	tr                  *tracer
	preloaded, accessed uint64
}

func (p *timedPredictor) OnFault(page mem.PageID) []mem.PageID {
	t0, prev := p.tr.begin(layerOnFault)
	out := p.Predictor.OnFault(page)
	p.tr.end(layerOnFault, t0, prev)
	return out
}

func (p *timedPredictor) NotePreloaded(n int) {
	p.preloaded += uint64(n)
	p.Predictor.NotePreloaded(n)
}

func (p *timedPredictor) NoteAccessed(n int) {
	p.accessed += uint64(n)
	p.Predictor.NoteAccessed(n)
}

// timedHook charges every event emission to obs.emit.
type timedHook struct {
	h  obs.Hook
	tr *tracer
}

func (h timedHook) Emit(e obs.Event) {
	t0, prev := h.tr.begin(layerEmit)
	h.h.Emit(e)
	h.tr.end(layerEmit, t0, prev)
}

// countingHook counts quota-vector emissions: one KindQuotaRebalance
// event with Batch 0 opens every vector (admissions and adaptive
// rebalances alike).
type countingHook struct{ vectors uint64 }

func (h *countingHook) Emit(e obs.Event) {
	if e.Kind == obs.KindQuotaRebalance && e.Batch == 0 {
		h.vectors++
	}
}
