package hirata

import (
	"runtime"
	"sync/atomic"
)

// sweepWorkers holds the configured sweep parallelism; 0 means NumCPU.
var sweepWorkers atomic.Int32

// SetParallelism sets how many experiment cells run concurrently: every
// runner of this package (the tables, the extensions, RunExplore and
// ValidateModel) runs its cells through one grid runner on the sweep
// engine. Each cell owns a private Processor and Memory and the results
// are assembled in cell order, so any setting produces byte-identical
// output: n == 1 is the sequential reference path, n <= 0 restores the
// default of runtime.NumCPU(). See docs/PERFORMANCE.md.
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
