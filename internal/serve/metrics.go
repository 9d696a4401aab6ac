package serve

import (
	"sync"

	"roborebound/internal/obs"
)

// Metrics wraps an obs.Registry with a mutex. The registry's
// primitives are deliberately unsynchronized — inside a simulation
// cell there is a single writer — but the serving layer mutates
// tallies from many goroutines at once (workers, HTTP handlers), so
// every access goes through this guard. Snapshot holds the same lock,
// so an exported snapshot is always internally consistent.
type Metrics struct {
	mu  sync.Mutex
	reg *obs.Registry
}

// NewMetrics wraps a fresh registry.
func NewMetrics() *Metrics { return &Metrics{reg: obs.NewRegistry()} }

// Inc increments the named counter.
func (m *Metrics) Inc(name string) { m.Add(name, 1) }

// Add adds delta to the named counter.
func (m *Metrics) Add(name string, delta uint64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.reg.Counter(name).Add(delta)
	m.mu.Unlock()
}

// Set sets the named gauge.
func (m *Metrics) Set(name string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.reg.Gauge(name).Set(v)
	m.mu.Unlock()
}

// Observe records one sample into the named histogram, creating it
// with the given bounds on first use.
func (m *Metrics) Observe(name string, bounds []float64, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.reg.Histogram(name, bounds).Observe(v)
	m.mu.Unlock()
}

// Snapshot returns the registry's sorted sample set.
func (m *Metrics) Snapshot() []obs.Sample {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reg.Snapshot()
}
