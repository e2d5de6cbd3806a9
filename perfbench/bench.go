package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"sgxpreload/internal/sim"
	"sgxpreload/internal/stats"
)

// options configures one benchmark run.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	// tiny shrinks every workload to a few thousand accesses (tests).
	tiny bool
	// refs holds the reference digests by job key.
	refs map[string]string
	// spanPath is where a traced run writes its spans; "" skips writing.
	spanPath string
	log      io.Writer
}

// workloadDef is one named workload: set-up builds its job list from
// the seed.
type workloadDef struct {
	name  string
	setup func(o *options) (*plan, error)
}

// plan is a set-up workload: its jobs in seed order, and the timings of
// named set-up phases (sip.profile_s, spec.compile_ms).
type plan struct {
	jobs  []job
	parts map[string]float64
	// warmup runs one round before measuring, checked but not timed.
	warmup bool
	// wallClock takes accesses_per_s from wall time instead of host
	// time, for a workload whose purpose includes parallel work: process
	// CPU time does not see hosts serialised or stalled at a barrier.
	wallClock bool
}

// job is one closed-loop unit of work. prepare builds it (untimed; its
// cost belongs to set-up) with tracing on when tr is non-nil.
type job struct {
	key     string
	prepare func(tr *tracer) (*prepared, error)
}

type prepared struct {
	run   func(c *runCtx) (*outcome, error)
	close func()
}

// hostTime is the process's CPU time, all threads, user plus system:
// the benchmark's clock for host time. On a virtual machine wall time
// also counts the time the hypervisor gives the CPU to other guests,
// which drifts by several percent from minute to minute.
func hostTime() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("perfbench: clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

const clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID

// runCtx is what a running job reports its host time into.
type runCtx struct {
	meter stepMeter
	timed time.Duration // host time
	wall  time.Duration // wall time over the same regions
	t0    time.Duration
	w0    time.Time
	tr    *tracer
	live  uint64 // live heap at the job's fullest point, bytes
	// inputs is the size of the job's own inputs that were built before
	// it started (cached ref traces, reused trace buffers), bytes.
	inputs uint64
}

func (c *runCtx) begin() { c.t0, c.w0 = hostTime(), time.Now() }
func (c *runCtx) end() {
	c.timed += hostTime() - c.t0
	c.wall += time.Since(c.w0)
}

// stepBlock is the number of steps one step-time sample averages over.
const stepBlock = 4096

// stepMeter turns a stream of steps into per-block host ns/step
// samples.
type stepMeter struct {
	n       int
	last    time.Duration
	samples []float64
}

func (m *stepMeter) start() { m.n, m.last = 0, hostTime() }

func (m *stepMeter) tick() {
	m.n++
	if m.n == stepBlock {
		now := hostTime()
		m.samples = append(m.samples, float64((now-m.last).Nanoseconds())/stepBlock)
		m.last, m.n = now, 0
	}
}

// drive steps an engine (or the mirror) to completion.
func drive(step func() (bool, error), m *stepMeter) error {
	for {
		more, err := step()
		if err != nil {
			return err
		}
		if !more {
			return nil
		}
		m.tick()
	}
}

// outcome is one job's simulated output and side measurements.
type outcome struct {
	accesses uint64
	digest   string
	results  []sim.SharedResult
	checkErr error

	// solo-grid cell identity, for the simulated gains.
	bench  string
	scheme sim.Scheme

	dfpPreloaded, dfpAccessed uint64 // mirror predictor counters
	shed                      int
	faultP99                  float64
	rebalances                uint64
	cpu, wall                 time.Duration // host and wall time across fleet.Run

	events, traceBytes      uint64
	parse, close, report    time.Duration
	parseBytes, parseEvents uint64
}

// phase accumulates one measured phase (untraced or traced).
type phase struct {
	timed     time.Duration
	accesses  uint64
	samples   []float64
	attempted int
	failed    int
	all       []*outcome
	first     []*outcome         // first outcome of each job key
	calls     [numLayers]int64   // layer calls over the first run of each job
	layerNs   [numLayers]float64 // tracer-corrected layer time, all jobs
	layerCall [numLayers]int64
	allocs    uint64
	gcs       uint64
	live      []float64 // each job's own footprint at its fullest point, bytes

	wall       time.Duration
	rounds     []float64 // accesses per host second of each round
	wallRounds []float64 // accesses per wall second of each round
	roundAcc   uint64
	roundTimed time.Duration
	roundWall  time.Duration
}

// endRound closes one round over the job list and records its
// throughput.
func (ph *phase) endRound() {
	acc, timed, wall := ph.accesses-ph.roundAcc, ph.timed-ph.roundTimed, ph.wall-ph.roundWall
	if timed > 0 && wall > 0 {
		ph.rounds = append(ph.rounds, float64(acc)/timed.Seconds())
		ph.wallRounds = append(ph.wallRounds, float64(acc)/wall.Seconds())
	}
	ph.roundAcc, ph.roundTimed, ph.roundWall = ph.accesses, ph.timed, ph.wall
}

func (ph *phase) nsPerAccess() float64 {
	if ph.accesses == 0 {
		return 0
	}
	return float64(ph.timed.Nanoseconds()) / float64(ph.accesses)
}

// measure runs the plan's jobs in order, in whole rounds over the job
// list, until budget has passed (at least one round), checking every
// job's output. Whole rounds keep every job's weight in the step-time
// distribution the same on every run.
func measure(o *options, p *plan, tr *tracer, budget time.Duration, dg *digests) *phase {
	ph := &phase{}
	seen := map[string]bool{}
	if p.warmup && tr == nil && len(dg.seen) == 0 {
		for _, j := range p.jobs {
			ph.checkOnly(o, j, dg)
		}
	}
	rt0 := readRuntime()
	deadline := time.Now().Add(budget)
	for i := 0; i%len(p.jobs) != 0 || i == 0 || time.Now().Before(deadline); i++ {
		j := p.jobs[i%len(p.jobs)]
		if tr != nil && dg.seen[j.key] == "" {
			// The traced job is held to the engine's output: run the
			// engine once for a job the untraced phase did not reach.
			ph.checkOnly(o, j, dg)
		}
		first := !seen[j.key]
		var before [numLayers]int64
		if tr != nil {
			before = tr.snapshot()
		}
		r := runJob(j, tr)
		ph.record(o, j.key, r, dg, seen)
		if (i+1)%len(p.jobs) == 0 {
			ph.endRound()
		}
		if tr != nil && first && r.out != nil {
			after := tr.snapshot()
			for l := range ph.calls {
				ph.calls[l] += after[l] - before[l]
			}
		}
	}
	rt1 := readRuntime()
	ph.allocs = rt1.allocs - rt0.allocs
	ph.gcs = rt1.gcs - rt0.gcs
	if tr != nil {
		for l := range ph.layerNs {
			ph.layerNs[l] = tr.net(layer(l))
		}
		ph.layerCall = tr.snapshot()
	}
	return ph
}

type jobRun struct {
	c   *runCtx
	out *outcome
	err error
}

func runJob(j job, tr *tracer) jobRun {
	// Every job starts from a collected heap, so the collections inside
	// it fall at the same points of its work on every run. The live heap
	// here is what the job's footprint is taken against.
	base := liveHeap()
	c := &runCtx{tr: tr}
	prep, err := j.prepare(tr)
	if err != nil {
		return jobRun{c: c, err: err}
	}
	defer prep.close()
	var id int
	t0 := time.Now()
	if tr != nil {
		id = len(tr.spans)
		tr.spans = append(tr.spans, span{ID: id, Parent: -1, Name: "job " + j.key})
		tr.job = id
	}
	c.meter.start()
	out, err := prep.run(c)
	// The job's whole state is still reachable here. (A fleet job
	// measured its own, inside fleet.Run.) Its footprint is what it
	// added to the heap since it started, plus its own inputs built
	// before then; the other jobs' cached inputs are not its own.
	c.live = max(c.live, liveHeap())
	c.live = max(c.live, base) - base + c.inputs
	if tr != nil {
		tr.spans[id].Start = t0.Sub(tr.epoch).Nanoseconds()
		tr.spans[id].End = time.Since(tr.epoch).Nanoseconds()
		tr.job = -1
	}
	return jobRun{c: c, out: out, err: err}
}

// record checks one job and folds it into the phase. seen marks the
// job keys whose first outcome is kept (nil keeps none).
func (ph *phase) record(o *options, key string, r jobRun, dg *digests, seen map[string]bool) {
	ph.attempted++
	err := r.err
	if err == nil {
		err = r.out.checkErr
	}
	if err == nil {
		err = dg.check(key, r.out.digest)
	}
	if err != nil {
		ph.failed++
		fmt.Fprintf(o.log, "perfbench: job %s failed: %v\n", key, err)
	}
	if r.out == nil {
		return
	}
	ph.timed += r.c.timed
	ph.wall += r.c.wall
	ph.accesses += r.out.accesses
	ph.samples = append(ph.samples, r.c.meter.samples...)
	ph.live = append(ph.live, float64(r.c.live))
	ph.all = append(ph.all, r.out)
	if seen != nil && !seen[key] {
		seen[key] = true
		ph.first = append(ph.first, r.out)
	}
}

// checkOnly runs job j untraced and counts it as attempted (and
// failed, if it fails its checks) without measuring it.
func (ph *phase) checkOnly(o *options, j job, dg *digests) {
	tmp := &phase{}
	tmp.record(o, j.key, runJob(j, nil), dg, nil)
	ph.attempted += tmp.attempted
	ph.failed += tmp.failed
}

// runtimeCounters are the process-wide allocation and GC totals.
type runtimeCounters struct{ allocs, gcs uint64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeCounters{allocs: s[0].Value.Uint64(), gcs: s[1].Value.Uint64()}
}

const liveMetric = "/gc/heap/live:bytes"

// liveHeap collects garbage and returns the live heap, read from
// runtime/metrics (which, unlike runtime.ReadMemStats, stops nothing).
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: liveMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// Set-up runs at least minSetupReps times per benchmark run, and more
// while the repetitions so far took under setupBudget (at most
// maxSetupReps); setup_s is the median.
const (
	minSetupReps = 5
	maxSetupReps = 51
	setupBudget  = 1500 * time.Millisecond
)

// setUp runs the workload's set-up repeatedly (each time including the
// first job's preparation) and returns the last plan with the median
// set-up time, the repetition count and the median of every named
// set-up phase.
func setUp(o *options, w workloadDef) (*plan, float64, int, map[string]float64, error) {
	var (
		p     *plan
		times []float64
		parts = map[string][]float64{}
	)
	start := time.Now()
	for r := 0; r < minSetupReps || (r < maxSetupReps && time.Since(start) < setupBudget); r++ {
		runtime.GC() // each repetition starts from the same heap
		t0 := hostTime()
		var err error
		if p, err = w.setup(o); err != nil {
			return nil, 0, 0, nil, err
		}
		prep, err := p.jobs[0].prepare(nil)
		if err != nil {
			return nil, 0, 0, nil, fmt.Errorf("prepare %s: %w", p.jobs[0].key, err)
		}
		times = append(times, (hostTime() - t0).Seconds())
		prep.close()
		for k, v := range p.parts {
			parts[k] = append(parts[k], v)
		}
	}
	med := map[string]float64{}
	for k, v := range parts {
		med[k] = median(v)
	}
	return p, median(times), len(times), med, nil
}

func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd derives the end-to-end metrics from the untraced phase:
// throughput is the median over rounds, which keeps a burst of load
// from other processes out of it, and peak_heap_mb the median over jobs
// of each job's own footprint at its fullest point.
func endToEnd(p *plan, u *phase, setupS float64) map[string]metric {
	rounds := u.rounds
	if p.wallClock {
		rounds = u.wallRounds
	}
	return map[string]metric{
		"accesses_per_s": {median(rounds), "1/s"},
		"step_ns_p50":    {percentile(u.samples, 50), "ns"},
		"step_ns_p99":    {percentile(u.samples, 99), "ns"},
		"setup_s":        {setupS, "s"},
		"peak_heap_mb":   {median(u.live) / (1 << 20), "MiB"},
	}
}

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, p)
}

// perLayer derives the per-layer metrics from the untraced phase u, the
// traced phase t and the set-up phase medians. A layer a workload does
// not exercise reads 0.
func perLayer(u, t *phase, parts map[string]float64) map[string]metric {
	m := map[string]metric{}
	perAcc := func(l layer) float64 { return ratio(t.layerNs[l], float64(t.accesses)) }
	attributed := 0.0
	for _, l := range topLevel {
		attributed += perAcc(l)
	}
	for _, l := range []layer{layerPull, layerTouch, layerFault, layerScan, layerSync, layerNotify, layerOnFault} {
		m[layerName[l]+"_ns"] = metric{perAcc(l), "ns/access"}
		if l != layerPull {
			m[layerName[l]+"_calls"] = metric{float64(t.calls[l]), "count"}
		}
	}
	stepNs := mean(u.samples)
	if len(u.samples) == 0 {
		stepNs = u.nsPerAccess()
	}
	m["sim.unattributed_ns"] = metric{stepNs - attributed, "ns/access"}
	m["sim.traced_ns_per_access"] = metric{t.nsPerAccess(), "ns/access"}
	m["sim.trace_overhead_pct"] = metric{(ratio(t.nsPerAccess(), u.nsPerAccess()) - 1) * 100, "%"}
	m["obs.emit_ns"] = metric{ratio(t.layerNs[layerEmit], float64(t.layerCall[layerEmit])), "ns/event"}
	m["sip.profile_s"] = metric{parts["sip.profile_s"], "s"}
	m["spec.compile_ms"] = metric{parts["spec.compile_ms"], "ms"}

	var cpu, wall, closeT, report, parse time.Duration
	var parseBytes, parseEvents, events, traceBytes uint64
	for _, o := range u.all {
		cpu += o.cpu
		wall += o.wall
		closeT += o.close
		report += o.report
		parse += o.parse
		parseBytes += o.parseBytes
		parseEvents += o.parseEvents
	}
	for _, o := range u.first {
		events += o.events
		traceBytes += o.traceBytes
	}
	jobs := float64(len(u.all))
	m["fleet.cpu_per_wall"] = metric{ratio(cpu.Seconds(), wall.Seconds()), "ratio"}
	m["obs.close_ms"] = metric{ratio(float64(closeT.Nanoseconds())/1e6, jobs), "ms"}
	m["obs.bytes_per_event"] = metric{ratio(float64(traceBytes), float64(events)), "B/event"}
	m["replay.parse_ns_per_event"] = metric{ratio(float64(parse.Nanoseconds()), float64(parseEvents)), "ns/event"}
	m["replay.report_ms"] = metric{ratio(float64(report.Nanoseconds())/1e6, jobs), "ms"}
	m["replay.mb_per_s"] = metric{ratio(float64(parseBytes)/(1<<20), parse.Seconds()), "MiB/s"}

	// Exact simulated counts, over the first run of each job.
	var acc, hits, evict, queued, dropped, started, sipChecks, sipPresent, rebal uint64
	var shed int
	faultP99 := 0.0
	for _, o := range u.first {
		for _, r := range o.results {
			acc += r.Accesses
			hits += r.Hits
			evict += r.Kernel.Evictions
			queued += r.Kernel.PreloadsQueued
			dropped += r.Kernel.PreloadsDropped
			started += r.Kernel.PreloadsStarted
			sipChecks += r.SIPChecks
			sipPresent += r.SIPPresent
		}
		shed += o.shed
		faultP99 = max(faultP99, o.faultP99)
	}
	var preloaded, accessed uint64
	for _, o := range t.first {
		preloaded += o.dfpPreloaded
		accessed += o.dfpAccessed
		rebal += o.rebalances
	}
	m["epc.hit_ratio"] = metric{ratio(float64(hits), float64(acc)), "ratio"}
	m["epc.evictions"] = metric{float64(evict), "count"}
	m["channel.drop_ratio"] = metric{ratio(float64(dropped), float64(queued)), "ratio"}
	m["channel.preloads_started"] = metric{float64(started), "count"}
	m["dfp.accuracy"] = metric{ratio(float64(accessed), float64(preloaded)), "ratio"}
	m["sip.wasted_ratio"] = metric{ratio(float64(sipPresent), float64(sipChecks)), "ratio"}
	m["arbiter.rebalances"] = metric{float64(rebal), "count"}
	m["fleet.shed"] = metric{float64(shed), "count"}
	m["sim.fault_p99_kcycles"] = metric{faultP99 / 1000, "kcycles"}
	dfpStop, hybrid := simGains(u.first)
	m["sim.gain_dfpstop_pct"] = metric{dfpStop, "%"}
	m["sim.gain_hybrid_pct"] = metric{hybrid, "%"}
	m["runtime.alloc_bytes_per_access"] = metric{ratio(float64(u.allocs), float64(u.accesses)), "B/access"}
	m["runtime.gc_cycles"] = metric{float64(u.gcs), "count"}
	return m
}

// simGains is the mean simulated improvement of DFP-stop and of the
// hybrid over baseline across the solo-grid benchmarks that ran both
// cells (0 when none did).
func simGains(first []*outcome) (dfpStop, hybrid float64) {
	type cells map[sim.Scheme]uint64
	by := map[string]cells{}
	for _, o := range first {
		if o.bench == "" || len(o.results) != 1 {
			continue
		}
		if by[o.bench] == nil {
			by[o.bench] = cells{}
		}
		by[o.bench][o.scheme] = o.results[0].Cycles
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	gain := func(s sim.Scheme) float64 {
		var g []float64
		for _, n := range names {
			base, okB := by[n][sim.Baseline]
			v, ok := by[n][s]
			if okB && ok {
				g = append(g, stats.ImprovementPct(v, base))
			}
		}
		if len(g) == 0 {
			return 0
		}
		return mean(g)
	}
	return gain(sim.DFPStop), gain(sim.Hybrid)
}

// finite replaces NaN and infinities, which JSON cannot carry, by 0.
func finite(m map[string]metric) map[string]metric {
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0
			m[k] = v
		}
	}
	return m
}
