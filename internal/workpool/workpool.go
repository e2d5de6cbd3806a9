// Package workpool is the repository's one bounded worker pool: the
// experiment sweeps fan their cells out on it, and the fleet layer
// advances its hosts on it between arrival barriers. Results land by
// index and errors surface in index order, so callers stay
// deterministic at any worker count.
package workpool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Sweep runs fn for cells 0..n-1 on up to workers goroutines and returns
// the results in cell order. workers <= 0 means GOMAXPROCS. Cells are
// dispatched in index order; once any cell fails, no new cells start, and
// the error of the lowest-index failed cell is returned — the same error
// a sequential loop would have surfaced first.
func Sweep[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, n)
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				v, err := fn(i)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	// Indices are dispatched contiguously from zero, so when a failure
	// stops the pool every index below the failing one has completed:
	// the lowest-index error here is exactly the first error a
	// sequential run would have hit.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
