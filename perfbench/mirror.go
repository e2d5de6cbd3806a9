package main

import (
	"container/heap"
	"fmt"

	"sgxpreload/internal/channel"
	"sgxpreload/internal/dfp"
	"sgxpreload/internal/epc"
	"sgxpreload/internal/epc/arbiter"
	"sgxpreload/internal/kernel"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/sim"
	"sgxpreload/internal/sip"
)

// mirror is the traced run's engine: it repeats sim.Engine's admission
// wiring and enclave step using only the public kernel, epc and channel
// calls, with a span around each call. Its simulated results must equal
// the engine's for the same inputs; the benchmark checks that on every
// traced job, so a drift between the two is reported, never absorbed.
//
// It covers what the traced workloads use: any scheme, the default
// predictor and eviction policy, and the Global quota (no arbiter).
type mirror struct {
	costs mem.CostModel
	encs  []*mirrorEnclave
	sched mirrorHeap
	tr    *tracer
}

type mirrorEnclave struct {
	enc    sim.Enclave
	src    mem.Stream
	kern   *kernel.Kernel
	pred   *timedPredictor // nil unless the scheme uses DFP
	bitmap *epc.Bitmap
	sel    *sip.Selection
	base   mem.PageID

	next mem.Access
	has  bool
	t    uint64
	res  sim.Result
}

func newMirror(encs []sim.Enclave, cfg sim.SharedConfig, tr *tracer) (*mirror, error) {
	if cfg.Quota != arbiter.Global || cfg.EvictPolicy != epc.PolicyClock || cfg.HookFactory != nil {
		return nil, fmt.Errorf("perfbench: the mirror engine covers the Global quota, CLOCK eviction and a concrete hook only")
	}
	if cfg.Costs == (mem.CostModel{}) {
		cfg.Costs = mem.DefaultCostModel()
	}
	m := &mirror{costs: cfg.Costs, tr: tr}
	var (
		shared *epc.EPC
		chan0  *channel.Channel
		total  uint64
	)
	for i, e := range encs {
		if e.Predictor != "" || e.BackgroundReclaim {
			return nil, fmt.Errorf("perfbench: mirror enclave %s: only the default predictor without reclaim is mirrored", e.Name)
		}
		newTotal := total + e.Pages
		var err error
		if shared == nil {
			shared, err = epc.NewWithPolicy(cfg.EPCPages, newTotal, cfg.EvictPolicy)
		} else {
			err = shared.Grow(newTotal)
		}
		if err != nil {
			return nil, err
		}
		var ch *channel.Channel
		if chan0 == nil {
			ch = channel.New()
			chan0 = ch
		} else {
			ch = chan0.Sibling()
		}
		base := mem.PageID(total)
		kcfg := kernel.Config{
			Costs:        cfg.Costs,
			EPCPages:     cfg.EPCPages,
			ELRangePages: newTotal,
			ScanPeriod:   cfg.ScanPeriod,
			MaxPending:   cfg.MaxPending,
			RangeLo:      base,
			RangeHi:      base + mem.PageID(e.Pages),
			Hook:         cfg.Hook,
			Owner:        i,
		}
		me := &mirrorEnclave{enc: e, base: base, res: sim.Result{Scheme: e.Scheme}}
		if e.Scheme.UsesDFP() {
			d := e.DFP
			if d.StreamListLen == 0 && d.LoadLength == 0 {
				d = dfp.DefaultConfig()
			}
			if e.Scheme == sim.DFPStop || e.Scheme == sim.Hybrid {
				d.Stop = true
			}
			p, err := dfp.New(d)
			if err != nil {
				return nil, err
			}
			me.pred = &timedPredictor{Predictor: p, tr: tr}
			kcfg.Predictor = me.pred
		}
		if me.kern, err = kernel.NewShared(kcfg, shared, ch); err != nil {
			return nil, err
		}
		if err := shared.AddOwner(newTotal); err != nil {
			return nil, err
		}
		me.bitmap = shared.PresenceBitmap()
		if e.Scheme.UsesSIP() {
			me.sel = e.Selection
		}
		src := e.Stream
		if e.Trace != nil || src == nil {
			src = mem.SliceStream(e.Trace)
		}
		me.src = &timedStream{src: src, tr: tr}
		me.next, me.has = me.src.Next()
		m.encs = append(m.encs, me)
		total = newTotal
		if me.has {
			heap.Push(&m.sched, heapEntry{key: me.next.Compute, idx: i})
		}
	}
	return m, nil
}

// step executes the access of the enclave with the smallest
// (clock + next compute, index) key, as sim.Engine.Step does.
func (m *mirror) step() (bool, error) {
	if len(m.sched) == 0 {
		return false, nil
	}
	me := m.encs[m.sched[0].idx]
	if err := m.exec(me); err != nil {
		return false, err
	}
	me.next, me.has = me.src.Next()
	if !me.has {
		heap.Pop(&m.sched)
		return true, nil
	}
	m.sched[0].key = me.t + me.next.Compute
	heap.Fix(&m.sched, 0)
	return true, nil
}

// exec is sim's enclave step with every kernel call inside a span.
func (m *mirror) exec(me *mirrorEnclave) error {
	acc := me.next
	if uint64(acc.Page) >= me.enc.Pages {
		return fmt.Errorf("perfbench: enclave %s touches page %d outside its %d pages", me.enc.Name, acc.Page, me.enc.Pages)
	}
	page := me.base + acc.Page
	tr := m.tr
	me.t += acc.Compute
	me.res.ComputeCycles += acc.Compute
	me.res.Accesses++
	t0, prev := tr.begin(layerScan)
	me.kern.MaybeScan(me.t)
	tr.end(layerScan, t0, prev)
	t0, prev = tr.begin(layerSync)
	me.kern.Sync(me.t)
	tr.end(layerSync, t0, prev)

	if acc.Prefetch {
		me.t += m.costs.BitmapCheck
		me.res.PrefetchChecks++
		if !me.bitmap.Get(uint64(page)) {
			me.t += m.costs.Notify
			me.kern.QueuePrefetch(me.t, page)
			me.res.PrefetchIssued++
		}
		me.res.Accesses--
		return nil
	}
	if me.sel.Instrumented(acc.Site) {
		me.t += m.costs.BitmapCheck
		me.res.SIPChecks++
		if me.bitmap.Get(uint64(page)) {
			me.res.SIPPresent++
		} else {
			me.t += m.costs.Notify
			t0, prev = tr.begin(layerNotify)
			me.t = me.kern.NotifyLoad(me.t, page)
			tr.end(layerNotify, t0, prev)
		}
	}
	t0, prev = tr.begin(layerTouch)
	hit := me.kern.Touch(page)
	tr.end(layerTouch, t0, prev)
	if hit {
		me.res.Hits++
		me.t += m.costs.Hit
		return nil
	}
	t0, prev = tr.begin(layerFault)
	me.t = me.kern.HandleFault(me.t, page)
	tr.end(layerFault, t0, prev)
	me.t += m.costs.Hit
	return nil
}

// results snapshots every enclave as sim.Engine.Results does.
func (m *mirror) results() []sim.SharedResult {
	out := make([]sim.SharedResult, len(m.encs))
	for i, me := range m.encs {
		r := me.res
		r.Cycles = me.t
		r.Kernel = me.kern.Stats()
		out[i] = sim.SharedResult{Name: me.enc.Name, Result: r}
	}
	return out
}

// dfpCounts sums the predictors' preload and accessed notifications.
func (m *mirror) dfpCounts() (preloaded, accessed uint64) {
	for _, me := range m.encs {
		if me.pred != nil {
			preloaded += me.pred.preloaded
			accessed += me.pred.accessed
		}
	}
	return preloaded, accessed
}

func (m *mirror) close() {
	for _, me := range m.encs {
		if c, ok := me.src.(mem.Closer); ok {
			c.Close()
		}
	}
}

// mirrorHeap orders runnable enclaves by (key, index), the engine's
// strict first-min tie-break.
type heapEntry struct {
	key uint64
	idx int
}

type mirrorHeap []heapEntry

func (h mirrorHeap) Len() int { return len(h) }
func (h mirrorHeap) Less(a, b int) bool {
	if h[a].key != h[b].key {
		return h[a].key < h[b].key
	}
	return h[a].idx < h[b].idx
}
func (h mirrorHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *mirrorHeap) Push(x any)   { *h = append(*h, x.(heapEntry)) }
func (h *mirrorHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
