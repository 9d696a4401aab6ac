package perf

import (
	"sync"

	"roborebound/internal/obs"
)

// SweepMeter aggregates per-cell wall-clock latency and worker
// utilization for one experiment sweep run on runner.AllOpts. The runner
// calls Now/CellDone from worker goroutines, so the meter is
// mutex-guarded; a nil meter is valid and disables metering (every
// method is nil-safe, and Now falls back to the package clock so the
// runner can time cells unconditionally).
//
// Utilization is busy-time over capacity: Σ cell durations divided by
// (wall time × workers). Cells that panicked still ran, so their
// elapsed time counts.
type SweepMeter struct {
	clock Clock

	mu      sync.Mutex
	workers int
	startNs int64
	running bool
	wallNs  int64
	busyNs  int64
	cells   int
	hist    *obs.Histogram // per-cell latency, log2 ns buckets
}

// NewSweepMeter returns a meter reading the given clock (nil = Now).
func NewSweepMeter(clock Clock) *SweepMeter {
	if clock == nil {
		clock = Now
	}
	return &SweepMeter{clock: clock, hist: obs.NewHistogram(LogNsBounds())}
}

// Now reads the meter's clock; on a nil meter it reads the package
// clock, so callers can time unconditionally through the one seam.
func (m *SweepMeter) Now() int64 {
	if m == nil {
		return Now()
	}
	return m.clock()
}

// Begin opens a wall-time window with the given worker-pool size.
// runner.AllOpts calls it at dispatch; multiple calls on one meter
// accumulate (wall windows sum, workers last-wins).
func (m *SweepMeter) Begin(workers int) {
	if m == nil {
		return
	}
	if workers < 1 {
		workers = 1
	}
	m.mu.Lock()
	m.workers = workers
	m.startNs = m.clock()
	m.running = true
	m.mu.Unlock()
}

// End closes the wall-time window opened by Begin.
func (m *SweepMeter) End() {
	if m == nil {
		return
	}
	m.mu.Lock()
	if m.running {
		m.wallNs += m.clock() - m.startNs
		m.running = false
	}
	m.mu.Unlock()
}

// CellDone records one completed cell's duration (clamped at 0).
func (m *SweepMeter) CellDone(durNs int64) {
	if m == nil {
		return
	}
	if durNs < 0 {
		durNs = 0
	}
	m.mu.Lock()
	m.cells++
	m.busyNs += durNs
	m.hist.Observe(float64(durNs))
	m.mu.Unlock()
}

// SweepReport is the sweep-level summary.
type SweepReport struct {
	Cells       int
	Workers     int
	WallNs      int64
	BusyNs      int64
	Utilization float64 // busy / (wall × workers), clamped to [0, 1]
	MeanNs      float64
	P50Ns       float64
	P95Ns       float64
	P99Ns       float64
}

// Report summarizes the meter so far (a still-open window counts up
// to the current clock). Zero value on nil.
func (m *SweepMeter) Report() SweepReport {
	if m == nil {
		return SweepReport{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	r := SweepReport{Cells: m.cells, Workers: m.workers, WallNs: m.wallNs, BusyNs: m.busyNs}
	if m.running {
		r.WallNs += m.clock() - m.startNs
	}
	if r.WallNs > 0 && m.workers > 0 {
		r.Utilization = float64(m.busyNs) / (float64(r.WallNs) * float64(m.workers))
		if r.Utilization > 1 {
			r.Utilization = 1
		}
	}
	if m.cells > 0 {
		r.MeanNs = float64(m.busyNs) / float64(m.cells)
		r.P50Ns = m.hist.Quantile(0.50)
		r.P95Ns = m.hist.Quantile(0.95)
		r.P99Ns = m.hist.Quantile(0.99)
	}
	return r
}
