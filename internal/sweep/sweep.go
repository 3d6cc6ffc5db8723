// Package sweep executes independent simulation cells concurrently.
//
// The paper's results are grids of independent simulations (Tables 2–5,
// the §3.3 speedup curves): every cell builds its own Processor and Memory
// and shares nothing with its neighbours, so the grid parallelises
// trivially while each simulator core stays single-threaded. Map is the
// only primitive the experiment runners need: run fn(0..n-1) on a bounded
// worker pool and hand back the results in index order, so a parallel
// sweep is observationally identical to the sequential loop it replaced —
// byte-identical output, deterministic error selection — regardless of
// worker count or scheduling.
package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Map runs fn(i) for every i in [0, n) and returns the n results in index
// order. workers bounds the number of concurrent calls: 1 runs the plain
// sequential loop (the reference path), values above n are clamped, and
// workers <= 0 selects runtime.NumCPU(). Workers pull indices from a
// shared atomic counter, so cells of uneven cost balance automatically.
//
// On failure Map returns the error of the lowest-index failing cell — the
// same error a sequential loop stopping at its first failure surfaces —
// so error reporting is deterministic at any worker count. (The parallel
// path still runs every cell; cells are independent simulations, so the
// extra work has no observable effect beyond latency.)
func Map[T any](n, workers int, fn func(int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			r, err := fn(i)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				results[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
