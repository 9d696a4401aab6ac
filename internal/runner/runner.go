// Package runner executes independent simulation cells concurrently
// on a bounded worker pool while preserving the exact semantics of a
// serial loop: results come back in input order and a panic in any
// cell surfaces on the caller's goroutine. The experiment sweeps
// (Figs. 2, 6, 7 — grids of (scenario, seed) cells that share no
// state) are the intended workload; each cell owns its own World,
// Medium, and PRNG, so running them on N workers is observably
// identical to running them one after another, just faster.
package runner

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"roborebound/internal/obs/perf"
)

// Options tunes one AllOpts call.
type Options struct {
	// Workers bounds concurrency. 0 (or negative) means
	// runtime.GOMAXPROCS(0); 1 forces the serial fast path, which
	// runs every cell inline on the caller's goroutine.
	Workers int
	// OnDone, if non-nil, is invoked once per completed cell (a
	// panicked one included) with its index and wall-clock duration.
	// Calls are serialized under a mutex, so the callback may print or
	// accumulate without its own locking. Completion order is
	// nondeterministic under parallelism; use the index, not the call
	// sequence, to identify cells.
	OnDone func(index int, elapsed time.Duration)
	// Meter, if non-nil, collects sweep telemetry: per-cell latency
	// into streaming histograms plus a worker-utilization window
	// spanning the AllOpts call. It is also the pool's wall-clock
	// source — every per-cell elapsed reading (including the one
	// OnDone sees) comes from the meter's injected clock, which is how
	// tests pin the timing math. nil reads the perf package clock
	// directly and records nothing.
	Meter *perf.SweepMeter
}

// WorkerCount resolves an Options.Workers value to an actual pool
// size for n cells.
func (o Options) WorkerCount(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// All runs fn for every index in [0, n) with the given worker bound
// and returns the results in input order — results[i] is fn(i)
// regardless of which worker ran it or when it finished.
func All[T any](workers int, n int, fn func(i int) T) []T {
	return AllOpts(Options{Workers: workers}, n, fn)
}

// AllOpts is All with full Options (progress callbacks, telemetry).
// A panic inside a cell does not stop the others: every cell runs,
// and then the lowest-index panic is re-raised on the caller's
// goroutine with the panicking cell's stack, so the reported failure
// is the one a serial `for` loop over the same cells would hit first,
// no matter which worker finished first.
func AllOpts[T any](opts Options, n int, fn func(i int) T) []T {
	results := make([]T, n)
	if n == 0 {
		return results
	}
	workers := opts.WorkerCount(n)
	opts.Meter.Begin(workers)
	defer opts.Meter.End()

	panics := make([]string, n)
	var doneMu sync.Mutex
	runCell := func(i int) {
		// Elapsed time is telemetry only (OnDone + meter histograms),
		// never simulation state. All wall-clock reads go through the
		// meter seam — perf.Now when no meter is attached — so the pool
		// has no time source of its own.
		start := opts.Meter.Now()
		func() {
			defer func() {
				if r := recover(); r != nil {
					panics[i] = fmt.Sprintf("runner: %v\n%s", r, debug.Stack())
				}
			}()
			results[i] = fn(i)
		}()
		elapsedNs := opts.Meter.Now() - start
		opts.Meter.CellDone(elapsedNs)
		if opts.OnDone != nil {
			doneMu.Lock()
			opts.OnDone(i, time.Duration(elapsedNs))
			doneMu.Unlock()
		}
	}

	if workers == 1 {
		// Serial fast path: no goroutines, no channels — the parallel
		// runner degenerates to the plain loop it replaced.
		for i := 0; i < n; i++ {
			runCell(i)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					runCell(i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}
	for _, p := range panics {
		if p != "" {
			panic(p)
		}
	}
	return results
}
