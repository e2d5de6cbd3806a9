package experiments

import (
	"fmt"
	"strings"

	"sgxpreload/internal/sim"
	"sgxpreload/internal/stats"
	"sgxpreload/internal/trace"
	"sgxpreload/internal/workload"
)

// Figure3Result holds the page-access patterns of Figure 3: bwaves and
// lbm evidently sequential, deepsjeng irregular.
type Figure3Result struct {
	Benchmarks []Figure3Row
}

// Figure3Row is one benchmark's pattern characterization.
type Figure3Row struct {
	Name    string
	Pattern trace.Pattern
	Fit     trace.Fit
	Samples []trace.Sample
}

// Figure3 reproduces Figure 3: page-number-versus-time patterns for
// bwaves, deepsjeng, and lbm, with the offline curve-fitting analysis the
// paper applies to them.
func Figure3(r *Runner) (Figure3Result, error) {
	var out Figure3Result
	names := []string{"bwaves", "deepsjeng", "lbm"}
	rows, err := sweep(r, "fig3", len(names),
		func(i int) string { return names[i] },
		func(i int) (Figure3Row, error) {
			w, err := mustWorkload(names[i])
			if err != nil {
				return Figure3Row{}, err
			}
			tr := r.Trace(w, workload.Ref)
			rec := trace.NewRecorder(uint64(len(tr)/2000 + 1))
			for _, a := range tr {
				rec.Record(a.Page)
			}
			samples := rec.Samples()
			return Figure3Row{
				Name:    names[i],
				Pattern: trace.Analyze(tr),
				Fit:     trace.FitLinear(samples),
				Samples: samples,
			}, nil
		})
	if err != nil {
		return out, err
	}
	out.Benchmarks = rows
	return out, nil
}

// String renders the characterization table.
func (f Figure3Result) String() string {
	t := &stats.Table{Header: []string{
		"benchmark", "accesses", "footprint", "seqRatio", "streamRatio", "meanRun", "fitR2",
	}}
	for _, b := range f.Benchmarks {
		t.Add(b.Name, b.Pattern.Accesses, b.Pattern.Footprint,
			b.Pattern.SequentialRatio, b.Pattern.StreamRatio,
			b.Pattern.MeanRunLength, b.Fit.R2)
	}
	return "Figure 3: representative page-access patterns\n" + t.String()
}

// Figure6Result is the stream-list-length sweep for lbm and bwaves.
type Figure6Result struct {
	Lengths  []int
	Lbm      []float64 // normalized execution time under DFP
	Bwaves   []float64
	Combined []float64 // normalized sum of both execution times
}

// Figure6 reproduces Figure 6: DFP execution time versus the length of
// the stream list, for lbm and bwaves. The paper picks 30 because the
// combined execution time bottoms out there.
func Figure6(r *Runner) (Figure6Result, error) {
	out := Figure6Result{Lengths: []int{2, 5, 10, 20, 30, 40, 60}}
	lbm, err := mustWorkload("lbm")
	if err != nil {
		return out, err
	}
	bwaves, err := mustWorkload("bwaves")
	if err != nil {
		return out, err
	}
	bases, err := r.RunAll([]string{"lbm", "bwaves"}, []sim.Scheme{sim.Baseline})
	if err != nil {
		return out, err
	}
	baseL, baseB := bases[0][0], bases[1][0]
	type cell struct{ lbm, bwaves, combined float64 }
	cells, err := sweep(r, "fig6", len(out.Lengths),
		func(i int) string { return fmt.Sprintf("streamlist=%d", out.Lengths[i]) },
		func(i int) (cell, error) {
			d := r.p.DFP
			d.StreamListLen = out.Lengths[i]
			rl, err := r.RunDFP(lbm, sim.DFP, d)
			if err != nil {
				return cell{}, err
			}
			rb, err := r.RunDFP(bwaves, sim.DFP, d)
			if err != nil {
				return cell{}, err
			}
			return cell{
				lbm:      stats.Normalized(rl.Cycles, baseL.Cycles),
				bwaves:   stats.Normalized(rb.Cycles, baseB.Cycles),
				combined: stats.Normalized(rl.Cycles+rb.Cycles, baseL.Cycles+baseB.Cycles),
			}, nil
		})
	if err != nil {
		return out, err
	}
	for _, c := range cells {
		out.Lbm = append(out.Lbm, c.lbm)
		out.Bwaves = append(out.Bwaves, c.bwaves)
		out.Combined = append(out.Combined, c.combined)
	}
	return out, nil
}

// Best returns the shortest list length whose combined time is within
// 0.25% of the minimum: past the point where every concurrent stream fits,
// longer lists only differ by noise, and the shorter list is the cheaper
// operating point.
func (f Figure6Result) Best() int {
	minV := 0.0
	for i, v := range f.Combined {
		if i == 0 || v < minV {
			minV = v
		}
	}
	for i, v := range f.Combined {
		if v <= minV+0.0025 {
			return f.Lengths[i]
		}
	}
	return 0
}

// String renders the sweep.
func (f Figure6Result) String() string {
	t := &stats.Table{Header: []string{"streamListLen", "lbm", "bwaves", "combined"}}
	for i, n := range f.Lengths {
		t.Add(n, f.Lbm[i], f.Bwaves[i], f.Combined[i])
	}
	return fmt.Sprintf("Figure 6: DFP vs stream_list length (normalized time; combined best at %d)\n%s",
		f.Best(), t.String())
}

// Figure7Result is the preload-distance (LOADLENGTH) sweep.
type Figure7Result struct {
	LoadLengths []int
	Benchmarks  []string
	// Norm[b][i] is benchmark b's normalized execution time at
	// LoadLengths[i] (baseline = no preloading = 1.0).
	Norm [][]float64
}

// Figure7 reproduces Figure 7: normalized execution time when preloading
// different numbers of EPC pages each time. The paper observes substantial
// losses for mcf and deepsjeng past 4 and settles on 4.
func Figure7(r *Runner) (Figure7Result, error) {
	out := Figure7Result{
		LoadLengths: []int{1, 2, 4, 8, 16, 32},
		Benchmarks:  Figure7Set(),
	}
	bases, err := r.RunAll(out.Benchmarks, []sim.Scheme{sim.Baseline})
	if err != nil {
		return out, err
	}
	nLL := len(out.LoadLengths)
	cells, err := sweep(r, "fig7", len(out.Benchmarks)*nLL,
		func(i int) string {
			return fmt.Sprintf("%s L=%d", out.Benchmarks[i/nLL], out.LoadLengths[i%nLL])
		},
		func(i int) (float64, error) {
			w, err := mustWorkload(out.Benchmarks[i/nLL])
			if err != nil {
				return 0, err
			}
			d := r.p.DFP
			d.LoadLength = out.LoadLengths[i%nLL]
			res, err := r.RunDFP(w, sim.DFP, d)
			if err != nil {
				return 0, err
			}
			return stats.Normalized(res.Cycles, bases[i/nLL][0].Cycles), nil
		})
	if err != nil {
		return out, err
	}
	for b := range out.Benchmarks {
		out.Norm = append(out.Norm, cells[b*nLL:(b+1)*nLL])
	}
	return out, nil
}

// String renders the sweep.
func (f Figure7Result) String() string {
	header := []string{"benchmark"}
	for _, ll := range f.LoadLengths {
		header = append(header, fmt.Sprintf("L=%d", ll))
	}
	t := &stats.Table{Header: header}
	for i, name := range f.Benchmarks {
		cells := []interface{}{name}
		for _, v := range f.Norm[i] {
			cells = append(cells, v)
		}
		t.Add(cells...)
	}
	return "Figure 7: normalized time vs preload distance (DFP)\n" + t.String()
}

// Figure8Row is one benchmark of the DFP study.
type Figure8Row struct {
	Name            string
	DFPImprovement  float64 // percent, positive = faster
	StopImprovement float64
	Stopped         bool // whether the safety valve fired under DFP-stop
}

// Figure8Result is the plain-DFP versus DFP-stop comparison.
type Figure8Result struct {
	Rows []Figure8Row
	// RegularMean is the mean improvement over the regular large-footprint
	// benchmarks (the paper reports 11.4%).
	RegularMean float64
	// OverheadMeanDFP and OverheadMeanStop average the losses of the
	// benchmarks plain DFP hurts (the paper reports 38.52% → 2.82%).
	OverheadMeanDFP  float64
	OverheadMeanStop float64
}

// Figure8 reproduces Figure 8: improvement from DFP with and without the
// global abort, per large-footprint benchmark.
func Figure8(r *Runner) (Figure8Result, error) {
	var out Figure8Result
	var regular []float64
	var overheadDFP, overheadStop []float64
	names := LargeWorkingSet()
	grid, err := r.RunAll(names, []sim.Scheme{sim.Baseline, sim.DFP, sim.DFPStop})
	if err != nil {
		return out, err
	}
	for i, name := range names {
		w, err := mustWorkload(name)
		if err != nil {
			return out, err
		}
		base, d, ds := grid[i][0], grid[i][1], grid[i][2]
		row := Figure8Row{
			Name:            name,
			DFPImprovement:  stats.ImprovementPct(d.Cycles, base.Cycles),
			StopImprovement: stats.ImprovementPct(ds.Cycles, base.Cycles),
			Stopped:         ds.Kernel.DFPStopped,
		}
		out.Rows = append(out.Rows, row)
		if w.Category == workload.LargeRegular {
			regular = append(regular, row.DFPImprovement)
		}
		if row.DFPImprovement < 0 {
			overheadDFP = append(overheadDFP, -row.DFPImprovement)
			overheadStop = append(overheadStop, -row.StopImprovement)
		}
	}
	out.RegularMean = stats.Mean(regular)
	out.OverheadMeanDFP = stats.Mean(overheadDFP)
	out.OverheadMeanStop = stats.Mean(overheadStop)
	return out, nil
}

// String renders the study.
func (f Figure8Result) String() string {
	t := &stats.Table{Header: []string{"benchmark", "DFP %", "DFP-stop %", "valve fired"}}
	for _, row := range f.Rows {
		t.Add(row.Name, row.DFPImprovement, row.StopImprovement, row.Stopped)
	}
	return fmt.Sprintf(
		"Figure 8: DFP and DFP-stop improvement (regular mean %.1f%%; overhead mean %.1f%% -> %.1f%%)\n%s",
		f.RegularMean, f.OverheadMeanDFP, f.OverheadMeanStop, t.String())
}

// Figure9Result is the SIP instrumentation-threshold sweep on deepsjeng.
type Figure9Result struct {
	Thresholds []float64
	Cycles     []uint64
	Points     []int
	Normalized []float64 // against the 5% operating point's baseline run
}

// Figure9 reproduces Figure 9: deepsjeng's execution time under SIP for
// different irregular-access-ratio thresholds; the paper's sweet spot is
// 5%.
func Figure9(r *Runner) (Figure9Result, error) {
	out := Figure9Result{Thresholds: []float64{0.01, 0.02, 0.05, 0.10, 0.20, 0.50}}
	w, err := mustWorkload("deepsjeng")
	if err != nil {
		return out, err
	}
	base, err := r.Run(w, sim.Baseline)
	if err != nil {
		return out, err
	}
	type cell struct {
		cycles uint64
		points int
		norm   float64
	}
	cells, err := sweep(r, "fig9", len(out.Thresholds),
		func(i int) string { return fmt.Sprintf("threshold=%.0f%%", out.Thresholds[i]*100) },
		func(i int) (cell, error) {
			sel, err := r.SelectionAt(w, out.Thresholds[i])
			if err != nil {
				return cell{}, err
			}
			res, err := r.run(w, sim.Enclave{Scheme: sim.SIP, Selection: sel}, sim.SharedConfig{})
			if err != nil {
				return cell{}, err
			}
			return cell{
				cycles: res.Cycles,
				points: sel.Points(),
				norm:   stats.Normalized(res.Cycles, base.Cycles),
			}, nil
		})
	if err != nil {
		return out, err
	}
	for _, c := range cells {
		out.Cycles = append(out.Cycles, c.cycles)
		out.Points = append(out.Points, c.points)
		out.Normalized = append(out.Normalized, c.norm)
	}
	return out, nil
}

// Best returns the threshold with the lowest execution time.
func (f Figure9Result) Best() float64 {
	best, bestV := 0.0, uint64(0)
	for i, c := range f.Cycles {
		if i == 0 || c < bestV {
			best, bestV = f.Thresholds[i], c
		}
	}
	return best
}

// String renders the sweep.
func (f Figure9Result) String() string {
	t := &stats.Table{Header: []string{"threshold", "points", "cycles", "normalized"}}
	for i, th := range f.Thresholds {
		t.Add(fmt.Sprintf("%.0f%%", th*100), f.Points[i], f.Cycles[i], f.Normalized[i])
	}
	return fmt.Sprintf("Figure 9: deepsjeng vs SIP threshold (best at %.0f%%)\n%s",
		f.Best()*100, t.String())
}

// SchemeRow is a benchmark's improvement under one scheme.
type SchemeRow struct {
	Name        string
	Improvement float64 // percent
	Points      int     // instrumentation points (SIP runs)
}

// Figure10Result is the SIP study.
type Figure10Result struct {
	Rows []SchemeRow
}

// Figure10 reproduces Figure 10: SIP improvement on the C/C++ benchmarks
// (deepsjeng ≈ +9%, mcf.2006 ≈ +4.9%, mcf a wash, lbm and the
// microbenchmark unchanged with zero instrumentation points).
func Figure10(r *Runner) (Figure10Result, error) {
	var out Figure10Result
	names := SIPSet()
	grid, err := r.RunAll(names, []sim.Scheme{sim.Baseline, sim.SIP})
	if err != nil {
		return out, err
	}
	for i, name := range names {
		w, err := mustWorkload(name)
		if err != nil {
			return out, err
		}
		sel, err := r.Selection(w)
		if err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, SchemeRow{
			Name:        name,
			Improvement: stats.ImprovementPct(grid[i][1].Cycles, grid[i][0].Cycles),
			Points:      sel.Points(),
		})
	}
	return out, nil
}

// String renders the study.
func (f Figure10Result) String() string {
	t := &stats.Table{Header: []string{"benchmark", "SIP %", "points"}}
	for _, row := range f.Rows {
		t.Add(row.Name, row.Improvement, row.Points)
	}
	return "Figure 10: SIP improvement\n" + t.String()
}

// Figure11Result is the real-world application study: each vision app
// under its suited scheme.
type Figure11Result struct {
	SIFTDFPImprovement float64
	MSERSIPImprovement float64
}

// Figure11 reproduces Figure 11: SIFT (sequential-dominant) under DFP and
// MSER (irregular-dominant) under SIP; the paper measures +9.5% and +3.0%.
func Figure11(r *Runner) (Figure11Result, error) {
	var out Figure11Result
	sift, err := mustWorkload("SIFT")
	if err != nil {
		return out, err
	}
	mser, err := mustWorkload("MSER")
	if err != nil {
		return out, err
	}
	cells := []struct {
		w *workload.Workload
		s sim.Scheme
	}{
		{sift, sim.Baseline}, {sift, sim.DFPStop},
		{mser, sim.Baseline}, {mser, sim.SIP},
	}
	res, err := sweep(r, "fig11", len(cells),
		func(i int) string { return cells[i].w.Name + "/" + cells[i].s.String() },
		func(i int) (sim.Result, error) { return r.Run(cells[i].w, cells[i].s) })
	if err != nil {
		return out, err
	}
	out.SIFTDFPImprovement = stats.ImprovementPct(res[1].Cycles, res[0].Cycles)
	out.MSERSIPImprovement = stats.ImprovementPct(res[3].Cycles, res[2].Cycles)
	return out, nil
}

// String renders the study.
func (f Figure11Result) String() string {
	return fmt.Sprintf(
		"Figure 11: real-world applications\nSIFT (DFP):  %+.1f%%\nMSER (SIP):  %+.1f%%\n",
		f.SIFTDFPImprovement, f.MSERSIPImprovement)
}

// HybridRow is one benchmark of the scheme-combination study.
type HybridRow struct {
	Name   string
	SIP    float64 // normalized execution time
	DFP    float64
	Hybrid float64
}

// Figure12Result is the SIP/DFP/hybrid comparison.
type Figure12Result struct {
	Rows []HybridRow
}

// Figure12 reproduces Figure 12: normalized execution time of SIP, DFP,
// and the hybrid scheme on the C/C++ benchmarks. The paper finds the
// hybrid close to the better of the two, with mcf's ≈4% overhead the
// worst case.
func Figure12(r *Runner) (Figure12Result, error) {
	var out Figure12Result
	names := SIPSet()
	grid, err := r.RunAll(names, hybridSchemes())
	if err != nil {
		return out, err
	}
	for i, name := range names {
		out.Rows = append(out.Rows, hybridRowFrom(name, grid[i]))
	}
	return out, nil
}

// hybridSchemes is the scheme order of the hybrid studies: baseline
// first, then the three contenders.
func hybridSchemes() []sim.Scheme {
	return []sim.Scheme{sim.Baseline, sim.SIP, sim.DFPStop, sim.Hybrid}
}

// hybridRowFrom normalizes one benchmark's hybridSchemes results.
func hybridRowFrom(name string, res []sim.Result) HybridRow {
	base := res[0]
	return HybridRow{
		Name:   name,
		SIP:    stats.Normalized(res[1].Cycles, base.Cycles),
		DFP:    stats.Normalized(res[2].Cycles, base.Cycles),
		Hybrid: stats.Normalized(res[3].Cycles, base.Cycles),
	}
}

func hybridRow(r *Runner, name string) (HybridRow, error) {
	grid, err := r.RunAll([]string{name}, hybridSchemes())
	if err != nil {
		return HybridRow{}, err
	}
	return hybridRowFrom(name, grid[0]), nil
}

// String renders the comparison.
func (f Figure12Result) String() string {
	t := &stats.Table{Header: []string{"benchmark", "SIP", "DFP", "SIP+DFP"}}
	for _, row := range f.Rows {
		t.Add(row.Name, row.SIP, row.DFP, row.Hybrid)
	}
	return "Figure 12: normalized time of SIP, DFP, and hybrid\n" + t.String()
}

// Figure13Result is the mixed-blood study.
type Figure13Result struct {
	Row HybridRow
}

// Figure13 reproduces Figure 13: the synthesized mixed-blood application
// (sequential scan + MSER), where the hybrid beats either scheme alone
// (the paper measures SIP +1.6%, DFP +6.0%, hybrid +7.1%).
func Figure13(r *Runner) (Figure13Result, error) {
	row, err := hybridRow(r, "mixed-blood")
	if err != nil {
		return Figure13Result{}, err
	}
	return Figure13Result{Row: row}, nil
}

// String renders the study.
func (f Figure13Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 13: mixed-blood\n")
	fmt.Fprintf(&b, "SIP:      %.3f (%+.1f%%)\n", f.Row.SIP, 100*(1-f.Row.SIP))
	fmt.Fprintf(&b, "DFP:      %.3f (%+.1f%%)\n", f.Row.DFP, 100*(1-f.Row.DFP))
	fmt.Fprintf(&b, "SIP+DFP:  %.3f (%+.1f%%)\n", f.Row.Hybrid, 100*(1-f.Row.Hybrid))
	return b.String()
}
