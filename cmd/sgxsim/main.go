// Command sgxsim runs one benchmark under one preloading scheme and
// prints the run's metrics. It can also replay and diff recorded traces
// without re-simulating, and serve live metrics over HTTP during a run.
//
// Usage:
//
//	sgxsim -bench lbm -scheme dfp
//	sgxsim -bench deepsjeng -scheme sip -threshold 0.05
//	sgxsim -bench mixed-blood -scheme hybrid -epc 2048 -loadlength 4
//	sgxsim -bench lbm -scheme dfp -compare -parallel 2
//	sgxsim -bench deepsjeng -scheme dfp-stop -trace run.jsonl
//	sgxsim -replay run.jsonl                    # re-derive metrics, no simulation
//	sgxsim -diff a.jsonl b.jsonl                # first divergence + metric deltas
//	sgxsim -bench lbm -scheme dfp -serve :8080  # live /metrics, /events, /report
//	sgxsim -bench lbm -scheme dfp -stream       # O(1)-memory streamed run
//	sgxsim -bench lbm -stream -repeat 0 -serve :8080  # unbounded, watch live
//	sgxsim -bench lbm,deepsjeng -scheme dfp     # shared-EPC co-run
//	sgxsim -stream -bench lbm,deepsjeng -scheme dfp-stop  # streamed co-run
//	sgxsim -bench lbm,mcf,deepsjeng,x264 -shards 2  # fleet: 2 EPC domains
//	sgxsim -bench lbm,leela,nab,leela -fleet 2 -fleet-policy pressure  # cluster: timed arrivals
//	sgxsim -spec workload.json -fleet 4             # cluster: spec-compiled arrival cohorts
//	sgxsim -spec workload.json -fleet 4 -rate-scale 2  # same spec at twice the load
//	sgxsim -list
//
// See OBSERVABILITY.md for the trace schema and the replay/diff/serve
// workflows.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"

	"sgxpreload/internal/core"
	"sgxpreload/internal/dfp"
	"sgxpreload/internal/epc"
	"sgxpreload/internal/epc/arbiter"
	"sgxpreload/internal/fleet"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/obs"
	"sgxpreload/internal/replay"
	"sgxpreload/internal/sim"
	"sgxpreload/internal/sip"
	"sgxpreload/internal/stats"
	"sgxpreload/internal/workload"
	"sgxpreload/internal/workload/spec"
	"sgxpreload/internal/workpool"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sgxsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sgxsim", flag.ContinueOnError)
	var (
		bench      = fs.String("bench", "microbenchmark", "benchmark name, or a comma-separated list for a shared-EPC co-run (-list to enumerate)")
		shards     = fs.Int("shards", 1, "with a multi-benchmark -bench list, split the enclaves round-robin over this many independent EPC domains simulated in parallel (-parallel workers)")
		fleetHosts = fs.Int("fleet", 0, "simulate a cluster of this many SGX hosts on one shared clock: the -bench list arrives over time (one launch per -arrival-period) and is placed by -fleet-policy")
		specPath   = fs.String("spec", "", "with -fleet, compile this JSON workload spec (cohorts with arrival processes; see WORKLOADS.md) into the cluster's arrival stream instead of the -bench list")
		rateScale  = fs.Float64("rate-scale", 1, "with -spec, multiply every cohort's arrival rate (the saturation knob)")
		fleetPol   = fs.String("fleet-policy", "round-robin", "with -fleet, the placement policy: round-robin | least-loaded | pressure | affinity")
		arrPeriod  = fs.Int("arrival-period", 1_000_000, "with -fleet, cycles between enclave launches at the fleet front door")
		admPeriod  = fs.Int("admit-period", 0, "with -fleet, token-bucket admission: cycles per admitted launch (0 = admit everything)")
		admBurst   = fs.Int("admit-burst", 1, "with -fleet and -admit-period, how many launches may be admitted back-to-back")
		scheme     = fs.String("scheme", "baseline", "baseline | dfp | dfp-stop | sip | hybrid")
		epcPages   = fs.Int("epc", 2048, "EPC capacity in 4KiB pages")
		listLen    = fs.Int("streamlist", 30, "DFP stream_list length")
		loadLength = fs.Int("loadlength", 4, "DFP preload distance (pages per prediction)")
		threshold  = fs.Float64("threshold", 0.05, "SIP irregular-access-ratio threshold")
		predictor  = fs.String("predictor", "multistream", "fault-history strategy: multistream | stride | markov | nextn")
		policy     = fs.String("policy", "clock", "EPC eviction: clock | fifo | lru | random")
		quotaName  = fs.String("quota", "global", "per-enclave EPC quota policy: global | static | prop | adaptive (global = no quotas; see DESIGN.md)")
		reclaim    = fs.Bool("reclaim", false, "enable the ksgxswapd-style background reclaimer")
		streamMode = fs.Bool("stream", false, "pull accesses from the workload generator on demand instead of materializing the trace (O(1) memory)")
		repeat     = fs.Int("repeat", 1, "with -stream, replay the workload's trace this many times back-to-back (0 = run until interrupted; pair with -serve)")
		compare    = fs.Bool("compare", false, "also run the baseline and report the improvement")
		tracePath  = fs.String("trace", "", "write the run's event timeline (JSONL; a .csv extension selects CSV)")
		metricsOut = fs.String("metrics-out", "", "write derived metrics (text report; a .svg extension renders the timeline chart)")
		parallel   = fs.Int("parallel", 0, "worker pool for -compare runs and -shards/-fleet host advancement (0 = GOMAXPROCS; output is identical at any setting)")
		progress   = fs.Bool("progress", false, "report each completed run on stderr")
		replayPath = fs.String("replay", "", "replay a recorded trace (JSONL, or CSV for .csv) instead of simulating")
		diffMode   = fs.Bool("diff", false, "diff two recorded traces given as positional args: -diff a.jsonl b.jsonl")
		serveAddr  = fs.String("serve", "", "serve live metrics over HTTP (/metrics, /events, /report) on this address during the run")
		jsonOut    = fs.Bool("json", false, "with -replay or -diff, emit JSON instead of text")
		list       = fs.Bool("list", false, "list benchmarks and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *diffMode {
		return runDiff(fs.Args(), *jsonOut, out)
	}
	if *replayPath != "" {
		return runReplay(*replayPath, *metricsOut, *jsonOut, out)
	}
	if *list {
		for _, name := range workload.Names() {
			w, _ := workload.ByName(name)
			fmt.Fprintf(out, "%-16s %-38s %s, %d pages\n",
				name, w.Category, w.Language, w.FootprintPages)
		}
		return nil
	}

	if *repeat < 0 {
		return fmt.Errorf("-repeat must be >= 0, got %d", *repeat)
	}
	if *repeat != 1 && !*streamMode {
		return fmt.Errorf("-repeat needs -stream (materialized runs always replay once)")
	}
	if *repeat == 0 && *serveAddr == "" {
		return fmt.Errorf("-repeat 0 runs forever; pair it with -serve to watch the run")
	}
	sch, err := sim.SchemeByName(strings.ToLower(*scheme))
	if err != nil {
		return err
	}

	d := dfp.DefaultConfig()
	d.StreamListLen = *listLen
	d.LoadLength = *loadLength

	var pol epc.Policy
	switch strings.ToLower(*policy) {
	case "clock":
		pol = epc.PolicyClock
	case "fifo":
		pol = epc.PolicyFIFO
	case "lru":
		pol = epc.PolicyLRU
	case "random":
		pol = epc.PolicyRandom
	default:
		return fmt.Errorf("unknown eviction policy %q", *policy)
	}
	quota, err := arbiter.ByName(strings.ToLower(*quotaName))
	if err != nil {
		return err
	}

	o := fleetOpts{
		hosts:      *shards,
		scheme:     sch,
		dfp:        d,
		predictor:  core.Kind(strings.ToLower(*predictor)),
		policy:     pol,
		quota:      quota,
		epcPages:   *epcPages,
		stream:     *streamMode,
		repeat:     *repeat,
		reclaim:    *reclaim,
		threshold:  *threshold,
		tracePath:  *tracePath,
		metricsOut: *metricsOut,
		serveAddr:  *serveAddr,
		workers:    *parallel,
	}

	// -fleet is the cluster path: the -bench list (or a compiled -spec)
	// becomes a timed arrival stream placed onto -fleet hosts on one
	// shared clock.
	if *fleetHosts > 0 {
		if *compare {
			return fmt.Errorf("-compare applies to single-benchmark runs")
		}
		if *shards != 1 {
			return fmt.Errorf("-shards and -fleet are different fleet shapes; pick one")
		}
		if *metricsOut != "" || *serveAddr != "" {
			return fmt.Errorf("-metrics-out/-serve record one engine's timeline; with -fleet use -trace for per-host trace files")
		}
		if *arrPeriod < 0 || *admPeriod < 0 {
			return fmt.Errorf("-arrival-period and -admit-period must be >= 0")
		}
		pl, err := fleet.PolicyByName(strings.ToLower(*fleetPol))
		if err != nil {
			return err
		}
		o.hosts = *fleetHosts
		o.placement = pl
		o.arrivalPeriod = uint64(*arrPeriod)
		o.admitPeriod = uint64(*admPeriod)
		o.admitBurst = *admBurst
		if *specPath != "" {
			return runSpecFleet(*specPath, *rateScale, o, out)
		}
		return runClusterFleet(strings.Split(*bench, ","), o, out)
	}
	if *specPath != "" {
		return fmt.Errorf("-spec compiles a cluster arrival stream; pair it with -fleet N")
	}

	// A comma-separated -bench list (or an explicit -shards) is a
	// multi-enclave run: every benchmark becomes one enclave, co-running
	// on shared EPC domains, streamed or materialized exactly like the
	// single-bench path.
	if names := strings.Split(*bench, ","); len(names) > 1 || *shards != 1 {
		if *compare {
			return fmt.Errorf("-compare applies to single-benchmark runs")
		}
		return runFleet(names, o, out)
	}

	w, err := workload.ByName(*bench)
	if err != nil {
		return err
	}
	return runBench(w, o, *compare, *progress, out)
}

// runBench runs one benchmark as a solo enclave and prints its metrics.
// With compare, the scheme run and a baseline run are independent cells
// fanned out on the worker pool; results land by index, so the report
// is identical at any -parallel setting. Only the scheme run is
// recorded (-trace, -metrics-out, -serve), and each run is
// single-goroutine, so the timeline is byte-identical at any -parallel
// setting too.
func runBench(w *workload.Workload, o fleetOpts, compare, progress bool, out io.Writer) error {
	enc, err := benchEnclave(w, w.Name, o)
	if err != nil {
		return err
	}
	if enc.Selection != nil {
		fmt.Fprintf(out, "SIP profile: %d instrumentation points at threshold %.0f%%\n",
			enc.Selection.Points(), o.threshold*100)
	}
	cells := []sim.Enclave{enc}
	if compare && o.scheme != sim.Baseline {
		base := enc
		base.Scheme, base.Selection = sim.Baseline, nil
		cells = append(cells, base)
	}
	rc, err := record(o, out)
	if err != nil {
		return err
	}
	defer rc.stop()
	results, err := workpool.Sweep(o.workers, len(cells), func(i int) (sim.Result, error) {
		e, p := cells[i], o.platform()
		if i == 0 {
			p.Hook = rc.hook
		} else if o.stream {
			// Each cell pulls its own fresh stream, so -compare cells
			// stay independent under any -parallel setting.
			e.Stream = repeatStream(w, o.repeat)
		}
		res, err := sim.RunShared([]sim.Enclave{e}, p)
		if err != nil {
			return sim.Result{}, err
		}
		if progress {
			fmt.Fprintf(os.Stderr, "  %s run done\n", e.Scheme)
		}
		return res[0].Result, nil
	})
	if err != nil {
		rc.traces.abort()
		return err
	}
	res := results[0]

	fmt.Fprintf(out, "benchmark:        %s (%s)\n", w.Name, w.Category)
	fmt.Fprintf(out, "scheme:           %s\n", res.Scheme)
	fmt.Fprintf(out, "cycles:           %d\n", res.Cycles)
	fmt.Fprintf(out, "accesses:         %d\n", res.Accesses)
	fmt.Fprintf(out, "hits:             %d\n", res.Hits)
	fmt.Fprintf(out, "demand faults:    %d\n", res.Kernel.DemandFaults)
	fmt.Fprintf(out, "evictions:        %d\n", res.Kernel.Evictions)
	fmt.Fprintf(out, "preloads started: %d (dropped %d)\n",
		res.Kernel.PreloadsStarted, res.Kernel.PreloadsDropped)
	fmt.Fprintf(out, "notify loads:     %d (hits %d)\n",
		res.Kernel.NotifyLoads, res.Kernel.NotifyHits)
	fmt.Fprintf(out, "fault cycles:     %d (%.1f%% of run)\n",
		res.FaultCycles(), 100*float64(res.FaultCycles())/float64(res.Cycles))
	if res.Kernel.DFPStopped {
		fmt.Fprintf(out, "safety valve:     fired at cycle %d\n", res.Kernel.DFPStopCycle)
	}

	if len(results) == 2 {
		base := results[1]
		fmt.Fprintf(out, "baseline cycles:  %d\n", base.Cycles)
		fmt.Fprintf(out, "improvement:      %+.2f%%\n", stats.ImprovementPct(res.Cycles, base.Cycles))
	}
	return rc.finish(out, singleTraceLabel, fmt.Sprintf("%s / %s", w.Name, res.Scheme), o.metricsOut)
}

// buildSelection profiles the workload's Train input and selects SIP
// instrumentation sites. The profiling pass pulls the train trace
// access-by-access, so it never exists as a slice.
func buildSelection(w *workload.Workload, epcPages int, d dfp.Config, threshold float64) (*sip.Selection, error) {
	if !w.Instrumentable {
		return nil, fmt.Errorf("%s cannot be instrumented (%s)", w.Name, w.Language)
	}
	cl, err := sip.NewClassifier(epcPages, w.ELRangePages(), d)
	if err != nil {
		return nil, err
	}
	src := w.Stream(workload.Train)
	for a, ok := src.Next(); ok; a, ok = src.Next() {
		cl.Record(a.Site, a.Page)
	}
	return sip.Select(cl.Profile(), threshold, 32), nil
}

// fleetOpts carries the flag values of a multi-enclave run: a -bench
// list co-run, its -shards split, or a -fleet cluster.
type fleetOpts struct {
	hosts         int // -shards EPC domains or -fleet hosts
	placement     fleet.Policy
	arrivalPeriod uint64
	admitPeriod   uint64
	admitBurst    int
	scheme        sim.Scheme
	dfp           dfp.Config
	predictor     core.Kind
	policy        epc.Policy
	quota         arbiter.Policy
	epcPages      int
	stream        bool
	repeat        int
	reclaim       bool
	threshold     float64
	tracePath     string
	metricsOut    string
	serveAddr     string
	workers       int
}

// platform is the EPC domain every engine of the run simulates.
func (o fleetOpts) platform() sim.SharedConfig {
	return sim.SharedConfig{EPCPages: o.epcPages, EvictPolicy: o.policy, Quota: o.quota}
}

// benchEnclave builds the enclave for one -bench list entry under the
// run's scheme, labelled name in results and traces: SIP runs profile
// the workload's Train input first, streamed runs pull the Ref trace on
// demand, materialized runs generate it up front.
func benchEnclave(w *workload.Workload, name string, o fleetOpts) (sim.Enclave, error) {
	enc := sim.Enclave{
		Name:              name,
		Pages:             w.ELRangePages(),
		Scheme:            o.scheme,
		DFP:               o.dfp,
		Predictor:         o.predictor,
		BackgroundReclaim: o.reclaim,
	}
	if o.scheme.UsesSIP() {
		sel, err := buildSelection(w, o.epcPages, o.dfp, o.threshold)
		if err != nil {
			return sim.Enclave{}, err
		}
		enc.Selection = sel
	}
	if o.stream {
		enc.Stream = repeatStream(w, o.repeat)
	} else {
		enc.Trace = w.Generate(workload.Ref)
	}
	return enc, nil
}

// runFleet co-simulates one enclave per benchmark name over o.hosts
// independent EPC domains (round-robin placement, o.epcPages frames per
// domain; the domain count clamps to the enclave count) and prints a
// per-enclave result table. One domain is the shared-EPC engine itself
// (sim.RunShared), the only shape that takes -metrics-out and -serve.
// More domains are a fleet with every enclave arriving at t=0 and no
// admission control, its hosts advanced on -parallel workers with a
// deterministic merge, so the table is identical at any parallelism.
// -trace works at any domain count — each EPC domain streams its own
// timeline to <path>.shard<N>, mirroring the cluster fleet's per-host
// traces, and each domain is single-goroutine so every per-shard trace
// is byte-identical at any worker count.
func runFleet(names []string, o fleetOpts, out io.Writer) error {
	if o.hosts < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", o.hosts)
	}
	if (o.metricsOut != "" || o.serveAddr != "") && o.hosts > 1 {
		return fmt.Errorf("-metrics-out/-serve record one engine's timeline; use -shards 1 (-trace writes per-shard files at any shard count)")
	}
	encs := make([]sim.Enclave, len(names))
	for i, name := range names {
		w, err := workload.ByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		if encs[i], err = benchEnclave(w, w.Name, o); err != nil {
			return err
		}
		if sel := encs[i].Selection; sel != nil {
			fmt.Fprintf(out, "SIP profile (%s):  %d instrumentation points at threshold %.0f%%\n",
				w.Name, sel.Points(), o.threshold*100)
		}
	}
	domains := min(o.hosts, len(encs))

	var results [][]sim.SharedResult
	var rc recording
	label := singleTraceLabel
	if domains > 1 {
		arrivals := make([]fleet.Arrival, len(encs))
		for i, e := range encs {
			arrivals[i] = fleet.Arrival{At: 0, Enclave: e}
		}
		cfg := fleet.Config{Hosts: domains, Policy: fleet.RoundRobin, Platform: o.platform(), Workers: o.workers}
		if o.tracePath != "" {
			var err error
			if rc.traces, err = openDomainTraces(o.tracePath, "shard", domains); err != nil {
				return err
			}
			cfg.Platform.HookFactory = rc.traces.hook
		}
		res, err := fleet.Run(arrivals, cfg)
		if err != nil {
			rc.traces.abort()
			return err
		}
		for _, hr := range res.Hosts {
			results = append(results, hr.Enclaves)
		}
		label = func(i int) string { return fmt.Sprintf("trace shard %d:    ", i) }
	} else {
		var err error
		if rc, err = record(o, out); err != nil {
			return err
		}
		defer rc.stop()
		p := o.platform()
		p.Hook = rc.hook
		res, err := sim.RunShared(encs, p)
		if err != nil {
			rc.traces.abort()
			return err
		}
		results = [][]sim.SharedResult{res}
	}

	fmt.Fprintf(out, "fleet:            %d enclaves over %d shard(s), EPC %d pages per shard, scheme %s%s\n",
		len(encs), domains, o.epcPages, o.scheme, quotaTag(o.quota))
	tbl := &stats.Table{Header: []string{
		"shard", "enclave", "cycles", "accesses", "hits", "faults", "preloads", "fault-cycles",
	}}
	for s, shard := range results {
		for _, r := range shard {
			tbl.Add(s, r.Name, r.Cycles, r.Accesses, r.Hits, r.Kernel.DemandFaults,
				r.Kernel.PreloadsStarted,
				fmt.Sprintf("%.1f%%", 100*float64(r.FaultCycles())/float64(r.Cycles)))
		}
	}
	fmt.Fprint(out, tbl.String())
	return rc.finish(out, label, fmt.Sprintf("fleet of %d / %s", len(encs), o.scheme), o.metricsOut)
}

// recording is one engine's instrumentation: the -trace sinks, the
// -metrics-out recorder, and the -serve ring, teed onto one hook. The
// zero value records nothing.
type recording struct {
	hook   obs.Hook
	traces domainTraces
	rec    *obs.Recorder
	stop   func() // shuts down the -serve endpoint (record sets a no-op)
}

// record opens a single engine's recording from o's flags: -trace
// streams to its path untagged, while -metrics-out keeps an in-memory
// recorder (the derived report needs the whole timeline). The trace
// streams through a StreamSink — encoded and flushed as it is emitted,
// so a traced run's memory is independent of trace length and -trace
// works on unbounded -stream -repeat 0 runs. The live-metrics ring rides
// the same hook via Tee; it locks per event, so HTTP scrapers see
// consistent snapshots mid-run. On error nothing is left open.
func record(o fleetOpts, out io.Writer) (recording, error) {
	rc := recording{stop: func() {}}
	var hooks []obs.Hook
	if o.tracePath != "" {
		var err error
		if rc.traces, err = openDomainTraces(o.tracePath, "", 1); err != nil {
			return recording{}, err
		}
		hooks = append(hooks, rc.traces.sinks[0])
	}
	if o.metricsOut != "" {
		rc.rec = obs.NewRecorder()
		hooks = append(hooks, rc.rec)
	}
	if o.serveAddr != "" {
		ring := obs.NewRing(0)
		hooks = append(hooks, ring)
		stop, err := serveMetrics(o.serveAddr, ring, out)
		if err != nil {
			rc.traces.abort()
			return recording{}, err
		}
		rc.stop = stop
	}
	rc.hook = obs.Tee(hooks...)
	return rc, nil
}

// finish closes the traces, printing one line per domain (see
// domainTraces.finish), then writes the -metrics-out report titled
// title to path.
func (rc recording) finish(out io.Writer, label func(i int) string, title, path string) error {
	if err := rc.traces.finish(out, label); err != nil {
		return err
	}
	if rc.rec == nil {
		return nil
	}
	if err := writeMetrics(rc.rec, title, path); err != nil {
		return err
	}
	fmt.Fprintf(out, "metrics:          %s\n", path)
	return nil
}

// singleTraceLabel labels a one-domain run's trace line.
func singleTraceLabel(int) string { return "trace:            " }

// runClusterFleet turns the benchmark list into a timed arrival stream
// (launch i at i * arrivalPeriod) and drives it through the fleet
// layer: one engine per host, each its own EPC domain, placements made
// by the selected policy at each arrival barrier, launches past the
// token bucket's rate shed at the front door. The fleet advances hosts
// in parallel between barriers with a deterministic merge, so the
// report is identical at any parallelism. With -trace, each host
// records its own timeline to <path>.host<N> — the per-host counterpart
// of the single-engine trace.
func runClusterFleet(names []string, o fleetOpts, out io.Writer) error {
	arrivals := make([]fleet.Arrival, len(names))
	for i, name := range names {
		w, err := workload.ByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		enc, err := benchEnclave(w, fmt.Sprintf("%s/%d", w.Name, i), o)
		if err != nil {
			return err
		}
		arrivals[i] = fleet.Arrival{At: uint64(i) * o.arrivalPeriod, Enclave: enc}
	}
	return runFleetArrivals(arrivals, o, out)
}

// runSpecFleet compiles a JSON workload spec into the cluster's arrival
// stream and drives it through the same fleet tail as the -bench list
// path. The compilation is seeded by the spec, so the whole run —
// launch times, workload picks, modifiers, placements, and the report —
// is identical at any -parallel setting.
func runSpecFleet(path string, rateScale float64, o fleetOpts, out io.Writer) error {
	s, err := spec.Load(path)
	if err != nil {
		return err
	}
	arrivals, m, err := spec.Compile(s, spec.Options{
		Scheme:            o.scheme,
		DFP:               o.dfp,
		Predictor:         o.predictor,
		BackgroundReclaim: o.reclaim,
		RateScale:         rateScale,
		Selection: func(w *workload.Workload) (*sip.Selection, error) {
			return buildSelection(w, o.epcPages, o.dfp, o.threshold)
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "spec:             %s: %d launches from %d cohort(s) before cycle %d (rate x%g)\n",
		m.Spec, len(m.Launches), len(s.Cohorts), m.Horizon, rateScale)
	return runFleetArrivals(arrivals, o, out)
}

// runFleetArrivals is the shared cluster tail: place the arrival stream
// onto o.hosts hosts, run to completion, and print the per-host report.
func runFleetArrivals(arrivals []fleet.Arrival, o fleetOpts, out io.Writer) error {
	cfg := fleet.Config{
		Hosts:       o.hosts,
		Policy:      o.placement,
		Platform:    o.platform(),
		AdmitPeriod: o.admitPeriod,
		AdmitBurst:  o.admitBurst,
		Workers:     o.workers,
	}
	var traces domainTraces
	if o.tracePath != "" {
		var err error
		if traces, err = openDomainTraces(o.tracePath, "host", o.hosts); err != nil {
			fleet.CloseArrivals(arrivals)
			return err
		}
		cfg.Platform.HookFactory = traces.hook
	}
	res, err := fleet.Run(arrivals, cfg)
	if err != nil {
		traces.abort()
		return err
	}

	fmt.Fprint(out, res.String())
	tbl := &stats.Table{Header: []string{
		"host", "enclave", "cycles", "accesses", "hits", "faults", "preloads", "resident", "quota",
	}}
	for h, hr := range res.Hosts {
		for i, r := range hr.Enclaves {
			quotaCol := "-" // Global policy: no quotas
			if hr.Quota != nil {
				quotaCol = fmt.Sprint(hr.Quota[i])
			}
			tbl.Add(h, r.Name, r.Cycles, r.Accesses, r.Hits, r.Kernel.DemandFaults,
				r.Kernel.PreloadsStarted, hr.Resident[i], quotaCol)
		}
	}
	fmt.Fprint(out, tbl.String())
	if len(res.Shed) > 0 {
		fmt.Fprintf(out, "shed at the front door: %s\n", strings.Join(res.Shed, ", "))
	}
	return traces.finish(out, func(h int) string { return fmt.Sprintf("trace host %d:     ", h) })
}

// domainTraces streams one trace file per EPC domain, so a long
// multi-domain run never holds a timeline in memory. The sinks are
// opened up front (a HookFactory cannot surface file errors) and
// resolved by domain index. The zero value traces nothing.
type domainTraces struct {
	sinks []*obs.StreamSink
	paths []string
}

// openDomainTraces opens n sinks at path tagged <tag><index> (see
// taggedTracePath); an empty tag, for a single domain, keeps path as is.
func openDomainTraces(path, tag string, n int) (domainTraces, error) {
	var d domainTraces
	for i := 0; i < n; i++ {
		p := path
		if tag != "" {
			p = taggedTracePath(path, fmt.Sprintf("%s%d", tag, i))
		}
		s, err := obs.NewStreamSinkFile(p)
		if err != nil {
			d.abort()
			return domainTraces{}, err
		}
		d.sinks = append(d.sinks, s)
		d.paths = append(d.paths, p)
	}
	return d, nil
}

// hook is the HookFactory resolving domain i to its sink.
func (d domainTraces) hook(i int) obs.Hook { return d.sinks[i] }

// abort closes every sink on a failed run.
func (d domainTraces) abort() {
	for _, s := range d.sinks {
		s.Close()
	}
}

// finish flushes and closes the sinks in domain order, printing one
// "<label(i)><events> events -> <path>" line per domain.
func (d domainTraces) finish(out io.Writer, label func(i int) string) error {
	for i, s := range d.sinks {
		if err := s.Close(); err != nil {
			d.abort()
			return fmt.Errorf("trace %s: %w", d.paths[i], err)
		}
		fmt.Fprintf(out, "%s%d events -> %s\n", label(i), s.Events(), d.paths[i])
	}
	return nil
}

// quotaTag renders the quota policy for run headers; empty under the
// Global default so existing output stays byte-identical.
func quotaTag(q arbiter.Policy) string {
	if q == arbiter.Global {
		return ""
	}
	return fmt.Sprintf(", quota %s", q)
}

// taggedTracePath inserts a per-domain tag before the path's extension:
// (run.jsonl, host2) -> run.host2.jsonl, (run.jsonl, shard0) ->
// run.shard0.jsonl.
func taggedTracePath(path, tag string) string {
	if i := strings.LastIndex(path, "."); i > 0 {
		return fmt.Sprintf("%s.%s%s", path[:i], tag, path[i:])
	}
	return fmt.Sprintf("%s.%s", path, tag)
}

// repeatStream replays the workload's Ref trace n times back-to-back,
// regenerating the generator stream at each cycle boundary (n == 0
// repeats forever). Memory stays O(1) at any n.
func repeatStream(w *workload.Workload, n int) mem.Stream {
	return &repeated{w: w, n: n, cycle: 1, cur: w.Stream(workload.Ref)}
}

// repeated is repeatStream's cursor: cur is the generator of the
// current cycle, cycle counts from 1.
type repeated struct {
	w        *workload.Workload
	n, cycle int
	cur      mem.Stream
}

func (r *repeated) Next() (mem.Access, bool) {
	for {
		if a, ok := r.cur.Next(); ok {
			return a, true
		}
		if r.n > 0 && r.cycle >= r.n {
			return mem.Access{}, false
		}
		r.cycle++
		r.cur = r.w.Stream(workload.Ref)
	}
}

// Close releases the current cycle's generator and makes that cycle the
// last, so a run that ends early leaves no generator behind.
func (r *repeated) Close() {
	r.n = r.cycle
	if c, ok := r.cur.(mem.Closer); ok {
		c.Close()
	}
}

// writeMetrics exports the derived metrics: a text report, or the
// timeline chart as SVG when path ends in .svg.
func writeMetrics(rec *obs.Recorder, title, path string) error {
	return writeEventMetrics(rec.Events(), title, path)
}

// writeEventMetrics is writeMetrics over a bare event slice (shared by
// the live and replay paths, so both produce identical report bytes).
func writeEventMetrics(events []obs.Event, title, path string) error {
	if strings.HasSuffix(path, ".svg") {
		chart := obs.Timeline(title, events, 4000)
		return os.WriteFile(path, []byte(chart.SVG()), 0o644)
	}
	report := obs.BuildReport(events)
	return os.WriteFile(path, []byte(report.String()), 0o644)
}

// runReplay loads a recorded trace and re-derives the run's metrics
// without simulating. The printed Report is byte-identical to what the
// live run's -metrics-out wrote, because both are obs.BuildReport over
// the same event timeline.
func runReplay(path, metricsOut string, jsonOut bool, out io.Writer) error {
	events, err := replay.ReadFile(path)
	if err != nil {
		return err
	}
	report := obs.BuildReport(events)
	if jsonOut {
		b, err := json.Marshal(report)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(b))
	} else {
		fmt.Fprintf(out, "replayed:            %d events from %s\n", len(events), path)
		fmt.Fprint(out, report.String())
	}
	if metricsOut != "" {
		if err := writeEventMetrics(events, "replay of "+path, metricsOut); err != nil {
			return err
		}
		fmt.Fprintf(out, "metrics:          %s\n", metricsOut)
	}
	return nil
}

// runDiff loads two recorded traces and reports the first divergent
// event plus per-kind and per-metric deltas.
func runDiff(paths []string, jsonOut bool, out io.Writer) error {
	if len(paths) != 2 {
		return fmt.Errorf("-diff needs exactly two trace paths, got %d", len(paths))
	}
	a, err := replay.ReadFile(paths[0])
	if err != nil {
		return err
	}
	b, err := replay.ReadFile(paths[1])
	if err != nil {
		return err
	}
	d := replay.Compare(a, b)
	if jsonOut {
		buf, err := json.Marshal(d)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(buf))
		return nil
	}
	fmt.Fprintf(out, "diff:                a = %s, b = %s\n", paths[0], paths[1])
	fmt.Fprint(out, d.String())
	return nil
}

// serveMetrics starts the live-metrics HTTP server on addr, printing the
// bound address (so :0 is usable), and returns a shutdown func. The
// server runs for the duration of the simulation; scrape /metrics,
// /events?since=N, or /report while the run is in flight.
func serveMetrics(addr string, ring *obs.Ring, out io.Writer) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "serving metrics:  http://%s (/metrics /events /report)\n", ln.Addr())
	srv := &http.Server{Handler: obs.NewHandler(ring)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	return func() {
		srv.Close()
		<-done
	}, nil
}
