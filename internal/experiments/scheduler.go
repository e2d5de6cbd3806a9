package experiments

import (
	"sync/atomic"

	"sgxpreload/internal/workpool"
)

// The sweep scheduler. Every experiment is a grid of independent
// (workload, config) cells; the scheduler fans the cells of one sweep out
// on workpool.Sweep and stores each result by cell index, so the
// assembled tables and figures are byte-identical at any worker count —
// completion order never leaks into the output.

// Progress is a per-cell completion callback: done cells out of total in
// the current sweep, plus a human-readable cell label. The Runner
// serializes calls, so implementations need no locking of their own.
type Progress func(done, total int, label string)

// sweep is the Runner-bound form of workpool.Sweep: it uses the runner's
// worker count and reports each completed cell (prefixed with the sweep
// name) through the runner's progress callback.
func sweep[T any](r *Runner, name string, n int, label func(i int) string, fn func(i int) (T, error)) ([]T, error) {
	var done atomic.Int64
	return workpool.Sweep(r.workers, n, func(i int) (T, error) {
		v, err := fn(i)
		if err == nil {
			r.reportCell(int(done.Add(1)), n, name+" "+label(i))
		}
		return v, err
	})
}
