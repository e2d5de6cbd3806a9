package experiments

import (
	"fmt"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/sim"
	"sgxpreload/internal/stats"
	"sgxpreload/internal/trace"
	"sgxpreload/internal/workload"
)

// Table1Row is one benchmark's classification.
type Table1Row struct {
	Name     string
	Declared string // the paper's Table 1 category
	Measured string // category from the measured access pattern
	Pattern  trace.Pattern
}

// Table1Result is the benchmark classification table.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 reproduces Table 1: the benchmark classification into small
// working set, large-irregular, and large-regular — measured from the
// actual page traces rather than copied from the declaration, so the table
// also validates the generators.
func Table1(r *Runner) (Table1Result, error) {
	var out Table1Result
	ws := workload.All()
	rows, err := sweep(r, "table1", len(ws),
		func(i int) string { return ws[i].Name },
		func(i int) (Table1Row, error) {
			w := ws[i]
			p := trace.Analyze(r.Trace(w, workload.Ref))
			return Table1Row{
				Name:     w.Name,
				Declared: w.Category.String(),
				Measured: p.Classify(uint64(r.p.EPCPages)),
				Pattern:  p,
			}, nil
		})
	if err != nil {
		return out, err
	}
	out.Rows = rows
	return out, nil
}

// String renders the classification.
func (t Table1Result) String() string {
	tbl := &stats.Table{Header: []string{"benchmark", "measured category", "footprint", "streamRatio"}}
	for _, row := range t.Rows {
		tbl.Add(row.Name, row.Measured, row.Pattern.Footprint, row.Pattern.StreamRatio)
	}
	return "Table 1: benchmark classification (measured)\n" + tbl.String()
}

// Mismatches returns benchmarks whose measured category differs from the
// declared one — should be empty.
func (t Table1Result) Mismatches() []string {
	var out []string
	for _, row := range t.Rows {
		if row.Declared != row.Measured {
			out = append(out, fmt.Sprintf("%s: declared %q, measured %q",
				row.Name, row.Declared, row.Measured))
		}
	}
	return out
}

// Table2Row is one benchmark's instrumentation-point count.
type Table2Row struct {
	Name   string
	Points int
}

// Table2Result is the instrumentation-point table.
type Table2Result struct {
	Rows []Table2Row
}

// Table2 reproduces Table 2: the number of SIP instrumentation points per
// benchmark. The paper reports mcf.2006 114, mcf 99, xz 46, deepsjeng 35,
// MSER 54, and zero for lbm, SIFT, and the microbenchmark — the TCB-size
// argument of §5.5.
func Table2(r *Runner) (Table2Result, error) {
	var out Table2Result
	names := []string{
		"mcf.2006", "mcf", "xz", "deepsjeng", "lbm", "MSER", "SIFT", "microbenchmark",
	}
	rows, err := sweep(r, "table2", len(names),
		func(i int) string { return names[i] },
		func(i int) (Table2Row, error) {
			w, err := mustWorkload(names[i])
			if err != nil {
				return Table2Row{}, err
			}
			sel, err := r.Selection(w)
			if err != nil {
				return Table2Row{}, err
			}
			return Table2Row{Name: names[i], Points: sel.Points()}, nil
		})
	if err != nil {
		return out, err
	}
	out.Rows = rows
	return out, nil
}

// String renders the table.
func (t Table2Result) String() string {
	tbl := &stats.Table{Header: []string{"benchmark", "instrumentation points"}}
	for _, row := range t.Rows {
		tbl.Add(row.Name, row.Points)
	}
	return "Table 2: SIP instrumentation points\n" + tbl.String()
}

// MotivationResult reproduces the paper's motivating numbers (§1–2): the
// slowdown of the 1 GB sequential scan inside an enclave, and the per-
// fault protocol costs.
type MotivationResult struct {
	// EnclaveCycles is the microbenchmark's time with enclave paging.
	EnclaveCycles uint64
	// OutsideCycles is the same trace with regular (2,000-cycle) faults.
	OutsideCycles uint64
	// Slowdown is their ratio (the paper observed ≈46x for its scan).
	Slowdown float64
	// EnclaveFaultCost and RegularFaultCost echo the cost model.
	EnclaveFaultCost uint64
	RegularFaultCost uint64
}

// Motivation measures the enclave-paging slowdown on the microbenchmark.
func Motivation(r *Runner) (MotivationResult, error) {
	var out MotivationResult
	w, err := mustWorkload("microbenchmark")
	if err != nil {
		return out, err
	}
	res, err := r.Run(w, sim.Baseline)
	if err != nil {
		return out, err
	}
	out.EnclaveCycles = res.Cycles

	// Outside the enclave the same faults cost RegularFault cycles and
	// there is no AEX/ERESUME or load channel: compute + hits + faults.
	cm := mem.DefaultCostModel()
	outside := res.ComputeCycles + res.Accesses*cm.Hit + res.Kernel.DemandFaults*cm.RegularFault
	out.OutsideCycles = outside
	if outside > 0 {
		out.Slowdown = float64(res.Cycles) / float64(outside)
	}
	out.EnclaveFaultCost = cm.FaultCost()
	out.RegularFaultCost = cm.RegularFault
	return out, nil
}

// String renders the motivation numbers.
func (m MotivationResult) String() string {
	return fmt.Sprintf(
		"Motivation: sequential scan, enclave vs outside\n"+
			"enclave fault cost:  %d cycles\n"+
			"regular fault cost:  %d cycles\n"+
			"enclave run:         %d cycles\n"+
			"outside run:         %d cycles\n"+
			"slowdown:            %.1fx\n",
		m.EnclaveFaultCost, m.RegularFaultCost,
		m.EnclaveCycles, m.OutsideCycles, m.Slowdown)
}
