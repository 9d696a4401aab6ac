package obs

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Registry is the single home for the harness's metrics: named
// counters, gauges, and histograms whose Snapshot is a sorted-by-name
// sample list, so two runs of the same (config, seed) serialize the
// same metrics byte-for-byte.
//
// A nil *Registry is valid and means "metrics disabled": every
// constructor on it returns a nil instrument, and nil instruments
// accept updates as no-ops. Call sites therefore never need to guard.
type Registry struct {
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	gaugeFuncs map[string]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		gaugeFuncs: make(map[string]func() float64),
	}
}

// Counter is a monotonically increasing tally. The zero of a nil
// *Counter is usable: Add/Inc on nil are no-ops and Value is 0.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta.
func (c *Counter) Add(delta uint64) {
	if c != nil {
		c.v += delta
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Store overwrites the count. It exists solely for snapshot restore —
// counters are owned by the components that increment them, and on
// resume each owner re-loads its tallies so the registry's next
// Snapshot matches the uninterrupted run's byte-for-byte. No-op on
// nil, like every other mutator.
func (c *Counter) Store(v uint64) {
	if c != nil {
		c.v = v
	}
}

// Gauge is a last-write-wins value. Nil-safe like Counter.
type Gauge struct{ v float64 }

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Value returns the last set value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram tallies observations into fixed buckets (upper-bound
// inclusive, with an implicit +Inf overflow bucket) and tracks count
// and sum. Nil-safe like Counter.
type Histogram struct {
	bounds []float64
	counts []uint64 // len(bounds)+1; last is overflow
	count  uint64
	sum    float64
}

// NewHistogram returns a standalone histogram (registered nowhere)
// with the given upper bounds, sorted ascending. Registry.Histogram
// uses it internally; callers that want streaming quantiles without a
// registry — the perf plane's latency distributions — use it
// directly. No samples are retained: quantiles come from the bucket
// tallies via Quantile.
func NewHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.count++
	h.sum += v
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Quantile estimates the q-quantile of the observed distribution from
// the bucket tallies (see BucketQuantile for the estimation contract).
// Nil or empty histograms return 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return BucketQuantile(h.bounds, h.counts, q)
}

// BucketQuantile estimates the q-quantile of a bucketed distribution:
// bounds are ascending upper bounds and counts holds len(bounds)+1
// tallies, the last being the overflow bucket — the Histogram layout.
// The estimate interpolates linearly within the winning bucket (lower
// edge 0 for the first); a quantile landing in the overflow bucket
// returns the highest finite bound, a deliberate underestimate that
// never invents a value. q is clamped to [0, 1]. The result is never
// NaN; empty tallies, empty bounds, and shape mismatches return 0.
func BucketQuantile(bounds []float64, counts []uint64, q float64) float64 {
	if len(bounds) == 0 || len(counts) != len(bounds)+1 {
		return 0
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1 // the first sample carries every quantile below 1/total
	}
	var cum uint64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		prev := float64(cum)
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i == len(bounds) {
			return bounds[len(bounds)-1] // overflow bucket
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		return lo + (bounds[i]-lo)*(rank-prev)/float64(c)
	}
	return bounds[len(bounds)-1]
}

// State returns the bucket tallies (a copy), total count, and sum for
// snapshotting. Bounds are not part of the state: they are fixed at
// registration and restored structurally by rebuilding the run.
func (h *Histogram) State() (counts []uint64, count uint64, sum float64) {
	if h == nil {
		return nil, 0, 0
	}
	counts = make([]uint64, len(h.counts))
	copy(counts, h.counts)
	return counts, h.count, h.sum
}

// SetState overwrites the tallies with ones previously obtained from
// State. The bucket count must match the histogram's registered
// bounds; a mismatch means the snapshot came from a differently
// configured run and is rejected. No-op (nil error) on a nil
// histogram so disabled-metrics restores stay guard-free.
func (h *Histogram) SetState(counts []uint64, count uint64, sum float64) error {
	if h == nil {
		return nil
	}
	if len(counts) != len(h.counts) {
		return fmt.Errorf("obs: histogram state has %d buckets, registered histogram has %d", len(counts), len(h.counts))
	}
	copy(h.counts, counts)
	h.count = count
	h.sum = sum
	return nil
}

// Counter returns (registering if needed) the named counter. On a nil
// registry it returns nil, which is a valid no-op counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering if needed) the named gauge; nil on a nil
// registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (registering if needed) the named histogram with
// the given ascending upper bounds; nil on a nil registry. Bounds are
// fixed at first registration.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	h := r.histograms[name]
	if h == nil {
		h = NewHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// RegisterGaugeFunc registers a gauge whose value is read at snapshot
// time — used to mirror externally-owned tallies (e.g. the radio's
// per-robot byte counters) into the registry without double-writing.
// No-op on a nil registry.
func (r *Registry) RegisterGaugeFunc(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.gaugeFuncs[name] = fn
}

// Sample is one named metric value in a snapshot.
type Sample struct {
	Name  string
	Value float64
}

// SamplesEqual reports whether two snapshots hold the same names and
// bit-identical values, in the same order. Bitwise, not ==, so a NaN
// gauge equals itself and +0 differs from -0: the byte-identity
// contracts are about bytes.
func SamplesEqual(a, b []Sample) bool {
	return slices.EqualFunc(a, b, func(x, y Sample) bool {
		return x.Name == y.Name && math.Float64bits(x.Value) == math.Float64bits(y.Value)
	})
}

// Snapshot returns every registered metric as Samples sorted by name.
// Histograms expand into `<name>.bucket.<le>`, `<name>.bucket.+inf`,
// `<name>.count`, and `<name>.sum` samples. Nil registries snapshot
// empty.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	names := make([]string, 0,
		len(r.counters)+len(r.gauges)+len(r.gaugeFuncs)+len(r.histograms))
	kinds := make(map[string]byte, cap(names))
	for name := range r.counters {
		names = append(names, name)
		kinds[name] = 'c'
	}
	for name := range r.gauges {
		names = append(names, name)
		kinds[name] = 'g'
	}
	for name := range r.gaugeFuncs {
		names = append(names, name)
		kinds[name] = 'f'
	}
	for name := range r.histograms {
		names = append(names, name)
		kinds[name] = 'h'
	}
	sort.Strings(names)
	size := len(names)
	for _, h := range r.histograms {
		size += len(h.bounds) + 2 // one name became buckets, +inf, count, sum
	}
	out := make([]Sample, 0, size)
	for _, name := range names {
		switch kinds[name] {
		case 'c':
			out = append(out, Sample{name, float64(r.counters[name].Value())})
		case 'g':
			out = append(out, Sample{name, r.gauges[name].Value()})
		case 'f':
			out = append(out, Sample{name, r.gaugeFuncs[name]()})
		case 'h':
			h := r.histograms[name]
			for i, b := range h.bounds {
				out = append(out, Sample{
					fmt.Sprintf("%s.bucket.%g", name, b),
					float64(h.counts[i]),
				})
			}
			out = append(out, Sample{name + ".bucket.+inf", float64(h.counts[len(h.bounds)])})
			out = append(out, Sample{name + ".count", float64(h.count)})
			out = append(out, Sample{name + ".sum", h.sum})
		}
	}
	// Histogram expansion appends derived names ("+inf" sorts before
	// digits), so re-sort the flattened list to keep the contract
	// strict: snapshots are sorted by sample name, full stop.
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// MergeSnapshots sums samples by name across snapshots (used by the
// chaos matrix to aggregate per-cell registries) and returns the
// merged set sorted by name.
func MergeSnapshots(snaps ...[]Sample) []Sample {
	totals := make(map[string]float64)
	names := make([]string, 0)
	for _, snap := range snaps {
		for _, s := range snap {
			if _, seen := totals[s.Name]; !seen {
				names = append(names, s.Name)
			}
			totals[s.Name] += s.Value
		}
	}
	sort.Strings(names)
	out := make([]Sample, len(names))
	for i, name := range names {
		out[i] = Sample{name, totals[name]}
	}
	return out
}
