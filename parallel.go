package hirata

import (
	"runtime"
	"sync/atomic"

	"hirata/internal/sweep"
)

// sweepWorkers holds the configured sweep parallelism; 0 means NumCPU.
var sweepWorkers atomic.Int32

// SetParallelism sets how many simulation cells the experiment runners
// (RunTable2..RunTable5, RunSpeedupCurve, RunMultiprogram and the extras)
// execute concurrently. Each cell owns a private Processor and Memory and
// the results are assembled in cell order, so any setting produces
// byte-identical output: n == 1 is the sequential reference path, n <= 0
// restores the default of runtime.NumCPU(). See docs/PERFORMANCE.md.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	sweepWorkers.Store(int32(n))
}

// Parallelism returns the effective sweep worker count.
func Parallelism() int {
	if n := int(sweepWorkers.Load()); n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// runCells executes n independent simulation cells on the sweep engine at
// the configured parallelism, returning results in cell order.
func runCells[T any](n int, fn func(int) (T, error)) ([]T, error) {
	return sweep.Map(n, Parallelism(), fn)
}
