package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"sgxpreload/internal/epc/arbiter"
	"sgxpreload/internal/experiments"
	"sgxpreload/internal/fleet"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/obs"
	"sgxpreload/internal/replay"
	"sgxpreload/internal/sim"
	"sgxpreload/internal/sip"
	"sgxpreload/internal/workload"
	"sgxpreload/internal/workload/spec"
)

// workloads is the benchmark's workload table, in BENCHMARK.json order
// (README.md gives the reason for each).
var workloads = []workloadDef{
	{"solo-grid", setupGrid},
	{"cohort-hits", setupCohort},
	{"fleet-spec", setupFleet},
	{"trace-roundtrip", setupTrace},
}

func workloadByName(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// gridNames are the paper's 13 large-working-set benchmarks.
var gridNames = []string{
	"bwaves", "lbm", "wrf", "microbenchmark", "roms", "mcf", "mcf.2006",
	"deepsjeng", "omnetpp", "xz", "SIFT", "MSER", "mixed-blood",
}

var allSchemes = []sim.Scheme{sim.Baseline, sim.DFP, sim.DFPStop, sim.SIP, sim.Hybrid}

// cell is one (benchmark, scheme) simulation over a cached ref trace.
type cell struct {
	w      *workload.Workload
	scheme sim.Scheme
	trace  []mem.Access
	sel    *sip.Selection
}

func (c cell) key(prefix string) string { return prefix + "/" + c.w.Name + "/" + c.scheme.String() }

func (c cell) enclave(p experiments.Params) sim.Enclave {
	e := sim.Enclave{Name: c.w.Name, Trace: c.trace, Pages: c.w.ELRangePages(), Scheme: c.scheme, DFP: p.DFP}
	if c.scheme.UsesSIP() {
		e.Selection = c.sel
	}
	return e
}

// buildCells generates the ref traces of the named benchmarks and the
// SIP selections of the instrumentable ones, and returns the cells of
// the requested (name, scheme) pairs with the SIP profiling time.
func buildCells(p experiments.Params, pairs []cellSpec) ([]cell, float64, error) {
	r := experiments.NewRunner(p)
	r.SetParallelism(1)
	var cells []cell
	for _, cs := range pairs {
		w, err := workload.ByName(cs.name)
		if err != nil {
			return nil, 0, err
		}
		cells = append(cells, cell{w: w, scheme: cs.scheme, trace: r.Trace(w, workload.Ref)})
	}
	t0 := hostTime()
	for i := range cells {
		if cells[i].scheme.UsesSIP() {
			sel, err := r.Selection(cells[i].w)
			if err != nil {
				return nil, 0, err
			}
			cells[i].sel = sel
		}
	}
	return cells, (hostTime() - t0).Seconds(), nil
}

type cellSpec struct {
	name   string
	scheme sim.Scheme
}

// setupGrid: every applicable scheme of every grid benchmark, one cell
// per job, in seed-shuffled order.
func setupGrid(o *options) (*plan, error) {
	names := gridNames
	if o.tiny {
		names = []string{"lbm", "xz"}
	}
	var pairs []cellSpec
	for _, n := range names {
		w, err := workload.ByName(n)
		if err != nil {
			return nil, err
		}
		for _, s := range allSchemes {
			if !s.UsesSIP() || w.Instrumentable {
				pairs = append(pairs, cellSpec{n, s})
			}
		}
	}
	p := experiments.Default()
	cells, sipS, err := buildCells(p, pairs)
	if err != nil {
		return nil, err
	}
	shuffle(cells, o.seed)
	pl := &plan{parts: map[string]float64{"sip.profile_s": sipS}}
	for _, c := range cells {
		c := c
		pl.jobs = append(pl.jobs, job{key: c.key("solo-grid"), prepare: func(tr *tracer) (*prepared, error) {
			cfg := sim.SharedConfig{EPCPages: p.EPCPages}
			return simJob([]sim.Enclave{c.enclave(p)}, cfg, tr, func(out *outcome) {
				out.bench, out.scheme = c.w.Name, c.scheme
			})
		}})
	}
	return pl, nil
}

// simJob drives one engine (untraced) or mirror (traced) over the
// enclaves to completion. annotate, when non-nil, tags the outcome.
func simJob(encs []sim.Enclave, cfg sim.SharedConfig, tr *tracer, annotate func(*outcome)) (*prepared, error) {
	var (
		step    func() (bool, error)
		results func() []sim.SharedResult
		closeFn func()
		mir     *mirror
	)
	if tr == nil {
		eng, err := sim.New(encs, cfg)
		if err != nil {
			return nil, err
		}
		step, results, closeFn = eng.Step, eng.Results, eng.Close
	} else {
		var err error
		if mir, err = newMirror(encs, cfg, tr); err != nil {
			return nil, err
		}
		step, results, closeFn = mir.step, mir.results, mir.close
	}
	// A cached ref trace was built in set-up, before the job started.
	var inputs uint64
	for _, e := range encs {
		inputs += uint64(len(e.Trace)) * uint64(unsafe.Sizeof(mem.Access{}))
	}
	return &prepared{close: closeFn, run: func(c *runCtx) (*outcome, error) {
		c.inputs += inputs
		c.begin()
		err := drive(step, &c.meter)
		c.end()
		if err != nil {
			return nil, err
		}
		rs := results()
		out := &outcome{results: rs, digest: newDigester().add(rs).sum(), checkErr: checkResults(rs)}
		for _, r := range rs {
			out.accesses += r.Accesses
		}
		if mir != nil {
			out.dfpPreloaded, out.dfpAccessed = mir.dfpCounts()
		}
		if annotate != nil {
			annotate(out)
		}
		return out, nil
	}}, nil
}

// cohortNames are the small-working-set benchmarks the cohort rotates
// through.
var cohortNames = []string{"leela", "nab", "exchange2", "cactuBSSN", "imagick"}

// setupCohort: 64 streamed enclaves, names in a seed-chosen rotation,
// DFP-stop, one EPC of 3/4 of their summed ELRANGE. One job is the whole
// cohort run.
func setupCohort(o *options) (*plan, error) {
	rot := append([]string(nil), cohortNames...)
	shuffle(rot, o.seed)
	n, limit := 64, uint64(0)
	if o.tiny {
		n, limit = 5, 3000
	}
	key := fmt.Sprintf("cohort-hits/n=%d/%s", n, strings.Join(rot, ","))
	if o.tiny {
		key += "/tiny"
	}
	ws := make([]*workload.Workload, n)
	var total uint64
	for i := range ws {
		w, err := workload.ByName(rot[i%len(rot)])
		if err != nil {
			return nil, err
		}
		ws[i] = w
		total += w.ELRangePages()
	}
	cfg := sim.SharedConfig{EPCPages: int(total * 3 / 4)}
	return &plan{jobs: []job{{key: key, prepare: func(tr *tracer) (*prepared, error) {
		encs := make([]sim.Enclave, n)
		for i, w := range ws {
			var src mem.Stream = w.Stream(workload.Ref)
			if limit > 0 {
				src = mem.Limit(src, limit)
			}
			encs[i] = sim.Enclave{Name: fmt.Sprintf("%s/%d", w.Name, i), Stream: src, Pages: w.ELRangePages(), Scheme: sim.DFPStop}
		}
		return simJob(encs, cfg, tr, nil)
	}}}}, nil
}

//go:embed fixture.json
var fixtureJSON []byte

const (
	fleetHosts       = 2
	fleetEPCPages    = 2048
	fleetAdmitPeriod = 150_000
	fleetAdmitBurst  = 2
	fleetWorkers     = 2
	// fleetSpecs is how many spec seeds one round runs: the fixture's
	// own seed and the ones after it. The work per access of one spec
	// seed's traffic differs from another's by up to 3x, so the benchmark
	// seed orders this fixed set instead of replacing the spec seed;
	// replacing it spread fleet figures by 14-20% across benchmark seeds.
	fleetSpecs = 8
)

// setupFleet: the spec fixture compiled under DFP-stop at each of
// fleetSpecs spec seeds, in benchmark-seed order, each compilation one
// job: a fleet.Run on 2 pressure-aware hosts with the adaptive quota and
// admission control.
func setupFleet(o *options) (*plan, error) {
	base, err := spec.Parse(fixtureJSON)
	if err != nil {
		return nil, err
	}
	seeds := make([]uint64, fleetSpecs)
	for i := range seeds {
		seeds[i] = base.Seed + uint64(i)
	}
	if o.tiny {
		seeds = seeds[:2]
	}
	shuffle(seeds, o.seed)
	compile := func(seed uint64) ([]fleet.Arrival, error) {
		s := *base
		s.Seed = seed
		arr, _, err := spec.Compile(&s, spec.Options{Scheme: sim.DFPStop})
		if err != nil {
			return nil, err
		}
		if o.tiny {
			for i := range arr {
				arr[i].Enclave.Stream = mem.Limit(arr[i].Enclave.Stream, 3000)
			}
		}
		return arr, nil
	}
	t0 := hostTime()
	for _, seed := range seeds {
		arr, err := compile(seed)
		if err != nil {
			return nil, err
		}
		fleet.CloseArrivals(arr)
	}
	pl := &plan{parts: map[string]float64{"spec.compile_ms": float64((hostTime() - t0).Nanoseconds()) / 1e6 / float64(len(seeds))}, wallClock: true}
	for _, seed := range seeds {
		seed := seed
		key := fmt.Sprintf("fleet-spec/spec-seed=%d", seed)
		if o.tiny {
			key += "/tiny"
		}
		pl.jobs = append(pl.jobs, job{key: key, prepare: func(tr *tracer) (*prepared, error) {
			arr, err := compile(seed)
			if err != nil {
				return nil, err
			}
			return fleetJob(arr, tr), nil
		}})
	}
	return pl, nil
}

// fleetJob runs one arrival stream through the fleet. Untraced, a
// shared counter over every enclave's stream times each block of
// fleet-wide steps (the engines pull one access per step); traced,
// every stream is timed instead and the hosts' quota vectors counted.
func fleetJob(arr []fleet.Arrival, tr *tracer) *prepared {
	meter := &fleetMeter{}
	var pulls []*timedStream
	for i := range arr {
		src := arr[i].Enclave.Stream
		if tr != nil {
			// One tracer per stream: hosts advance in parallel.
			ts := &timedStream{src: src, tr: newTracer()}
			ts.tr.inner = maxInnerSpans // per-stream totals only
			pulls = append(pulls, ts)
			src = ts
		} else {
			src = &meteredStream{src: src, m: meter}
			meter.open.Add(1)
		}
		arr[i].Enclave.Stream = src
	}
	cfg := fleet.Config{
		Hosts:       fleetHosts,
		Policy:      fleet.PressureAware,
		Platform:    sim.SharedConfig{EPCPages: fleetEPCPages, Quota: arbiter.Adaptive},
		AdmitPeriod: fleetAdmitPeriod,
		AdmitBurst:  fleetAdmitBurst,
		Workers:     fleetWorkers,
	}
	hooks := make([]*countingHook, fleetHosts)
	if tr != nil {
		for h := range hooks {
			hooks[h] = &countingHook{}
		}
		cfg.Platform.HookFactory = func(h int) obs.Hook { return hooks[h] }
	}
	return &prepared{close: func() { fleet.CloseArrivals(arr) }, run: func(c *runCtx) (*outcome, error) {
		meter.last = hostTime()
		t0 := time.Now()
		c.begin()
		res, err := fleet.Run(arr, cfg)
		c.end()
		c.timed -= meter.pause
		c.wall -= meter.pauseWall
		c.live = meter.live
		wall := time.Since(t0) - meter.pauseWall
		if err != nil {
			return nil, err
		}
		if tr != nil {
			tr.outer("fleet.Run", tr.job, t0)
			for _, ts := range pulls {
				tr.ns[layerPull] += ts.tr.ns[layerPull]
				tr.calls[layerPull] += ts.tr.calls[layerPull]
			}
		}
		c.meter.samples = append(c.meter.samples, meter.samples...)
		out := &outcome{
			digest:   newDigester().add(res).sum(),
			checkErr: checkFleet(res, len(arr), fleetEPCPages),
			shed:     len(res.Shed),
			faultP99: res.FaultP99,
			cpu:      c.timed,
			wall:     wall,
		}
		for _, h := range res.Hosts {
			out.results = append(out.results, h.Enclaves...)
		}
		for _, r := range out.results {
			out.accesses += r.Accesses
		}
		for _, h := range hooks {
			if h != nil {
				out.rebalances += h.vectors
			}
		}
		return out, nil
	}}
}

// fleetMeter is stepMeter for steps taken on several goroutines. It
// also takes the fleet's live heap when the last enclave stream ends:
// fleet.Run frees its engines before it returns, so that is the one
// point at which every host's state is still reachable.
type fleetMeter struct {
	n       atomic.Int64
	open    atomic.Int64 // streams not yet exhausted or closed
	mu      sync.Mutex
	last    time.Duration
	samples []float64
	live    uint64
	// pause and pauseWall are the host and wall time the collection
	// took; the job's times exclude them.
	pause, pauseWall time.Duration
}

// ended marks one stream finished; the last one measures the heap.
func (m *fleetMeter) ended() {
	if m.open.Add(-1) == 0 {
		t0, w0 := hostTime(), time.Now()
		m.live = liveHeap()
		m.pause, m.pauseWall = hostTime()-t0, time.Since(w0)
	}
}

// meteredStream counts fleet-wide steps.
type meteredStream struct {
	src  mem.Stream
	m    *fleetMeter
	done bool
}

func (s *meteredStream) Next() (mem.Access, bool) {
	a, ok := s.src.Next()
	if !ok {
		s.finish()
		return a, ok
	}
	if s.m.n.Add(1)%stepBlock == 0 {
		s.m.mu.Lock()
		now := hostTime()
		s.m.samples = append(s.m.samples, float64((now-s.m.last).Nanoseconds())/stepBlock)
		s.m.last = now
		s.m.mu.Unlock()
	}
	return a, ok
}

func (s *meteredStream) finish() {
	if !s.done {
		s.done = true
		s.m.ended()
	}
}

func (s *meteredStream) Close() {
	s.finish()
	if c, ok := s.src.(mem.Closer); ok {
		c.Close()
	}
}

// setupTrace: preload-heavy cells, each traced through two in-memory
// StreamSinks (JSONL and CSV), parsed back and folded into a report.
func setupTrace(o *options) (*plan, error) {
	pairs := []cellSpec{{"lbm", sim.DFP}, {"bwaves", sim.DFP}, {"SIFT", sim.DFP}, {"deepsjeng", sim.Hybrid}}
	if o.tiny {
		pairs = []cellSpec{{"lbm", sim.DFP}, {"xz", sim.Hybrid}}
	}
	p := experiments.Default()
	cells, sipS, err := buildCells(p, pairs)
	if err != nil {
		return nil, err
	}
	shuffle(cells, o.seed)
	// The first round grows each cell's trace buffers to their final
	// size; later rounds reuse them, so they measure encoding and parsing
	// rather than the Go allocator fetching fresh memory.
	pl := &plan{parts: map[string]float64{"sip.profile_s": sipS}, warmup: true}
	for _, c := range cells {
		c := c
		bufs := &[2]bytes.Buffer{}
		pl.jobs = append(pl.jobs, job{key: c.key("trace-roundtrip"), prepare: func(tr *tracer) (*prepared, error) {
			return traceJob(c.enclave(p), sim.SharedConfig{EPCPages: p.EPCPages}, tr, bufs)
		}})
	}
	return pl, nil
}

// traceJob runs one cell with both sinks attached, then closes them,
// parses both traces back and builds the report — all timed — and checks
// the round trip outside the timed region.
func traceJob(enc sim.Enclave, cfg sim.SharedConfig, tr *tracer, bufs *[2]bytes.Buffer) (*prepared, error) {
	bufJ, bufC := &bufs[0], &bufs[1]
	bufJ.Reset()
	bufC.Reset()
	sinkJ := obs.NewStreamSink(bufJ, obs.FormatJSONL)
	sinkC := obs.NewStreamSink(bufC, obs.FormatCSV)
	cfg.Hook = obs.Tee(sinkJ, sinkC)
	if tr != nil {
		cfg.Hook = timedHook{h: cfg.Hook, tr: tr}
	}
	inner, err := simJob([]sim.Enclave{enc}, cfg, tr, nil)
	if err != nil {
		sinkJ.Close()
		sinkC.Close()
		return nil, err
	}
	// The parsed timelines live as long as the job, so the live heap
	// measured at its end includes them.
	var evJ, evC []obs.Event
	closeSinks := func() error {
		errJ := sinkJ.Close()
		if errC := sinkC.Close(); errJ == nil {
			errJ = errC
		}
		return errJ
	}
	return &prepared{close: func() { closeSinks(); inner.close() }, run: func(c *runCtx) (*outcome, error) {
		out, err := inner.run(c) // the traced-write phase, timed
		if err != nil {
			return nil, err
		}
		// timed runs one phase of the round trip, charging its host time
		// to the job and to d.
		timed := func(name string, d *time.Duration, fn func() error) error {
			t0, h0 := time.Now(), hostTime()
			err := fn()
			spent := hostTime() - h0
			c.timed += spent
			c.wall += time.Since(t0)
			*d += spent
			if tr != nil {
				tr.outer(name, tr.job, t0)
			}
			return err
		}
		if err := timed("obs.close", &out.close, closeSinks); err != nil {
			return nil, err
		}
		var rep obs.Report
		if err := timed("replay.ReadJSONL", &out.parse, func() (err error) {
			evJ, err = replay.ReadJSONL(bytes.NewReader(bufJ.Bytes()))
			return err
		}); err != nil {
			return nil, err
		}
		timed("obs.BuildReport", &out.report, func() error { rep = obs.BuildReport(evJ); return nil })
		checkErr := checkTrace("jsonl", bufJ.Bytes(), evJ, sinkJ.Events())
		if err := timed("replay.ReadCSV", &out.parse, func() (err error) {
			evC, err = replay.ReadCSV(bytes.NewReader(bufC.Bytes()))
			return err
		}); err != nil {
			return nil, err
		}
		if checkErr == nil {
			checkErr = checkTrace("csv", bufC.Bytes(), evC, sinkC.Events())
		}
		if checkErr == nil {
			checkErr = out.checkErr
		}
		repJSON, err := json.Marshal(rep)
		if err != nil {
			return nil, err
		}
		// The two buffers were grown by an earlier round of this cell.
		c.inputs += uint64(bufJ.Cap() + bufC.Cap())
		out.checkErr = checkErr
		out.events = uint64(sinkJ.Events())
		out.traceBytes = uint64(bufJ.Len())
		out.parseBytes = uint64(bufJ.Len() + bufC.Len())
		out.parseEvents = uint64(sinkJ.Events() + len(evC))
		out.digest = newDigester().add(out.results).add(sha(bufJ.Bytes())).add(sha(bufC.Bytes())).add(string(repJSON)).sum()
		return out, nil
	}}, nil
}

// shuffle permutes xs in place with a Fisher-Yates pass whose draws
// are splitmix64 outputs, so a seed names one order on every platform
// and Go release.
func shuffle[T any](xs []T, seed uint64) {
	for i := len(xs) - 1; i > 0; i-- {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		j := int(z % uint64(i+1))
		xs[i], xs[j] = xs[j], xs[i]
	}
}
