package obs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Registry is the single home for the harness's metrics: named
// counters, gauges, and histograms, plus the registered Sources —
// component instances whose own fields are their tallies — whose
// Snapshot is a sorted-by-name sample list, so two runs of the same
// (config, seed) serialize the same metrics byte-for-byte.
//
// A nil *Registry is valid and means "metrics disabled": every
// constructor on it returns a nil instrument, nil instruments accept
// updates as no-ops, and Register does nothing. Call sites therefore
// never need to guard.
type Registry struct {
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	sources    []source
}

// source is one Register call: a component instance and the name
// prefix and ID its samples carry.
type source struct {
	prefix string
	id     uint64
	src    Source
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
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
// with the given upper bounds. Ascending bounds are kept, not copied,
// so every histogram of a kind can share one bounds slice that nobody
// modifies; other bounds are copied and sorted. Registry.Histogram
// uses it internally; callers that want streaming quantiles without a
// registry — the perf plane's latency distributions — use it
// directly. No samples are retained: quantiles come from the bucket
// tallies via Quantile.
func NewHistogram(bounds []float64) *Histogram {
	if !slices.IsSorted(bounds) {
		bounds = slices.Clone(bounds)
		slices.Sort(bounds)
	}
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
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

// Source is one component instance whose own fields are its tallies:
// it registers once with Register, and every Snapshot reads it then,
// so the component pays for its metrics what it pays for its fields.
type Source interface {
	// WriteSamples writes the instance's current tallies to w.
	WriteSamples(w *SampleWriter)
}

// Register adds one component instance to the registry: every
// Snapshot calls src.WriteSamples and names its samples
// <prefix><id>.<name> (core.robot.7.rounds_started). Register each
// instance once; the registry does not deduplicate. No-op on a nil
// registry.
func (r *Registry) Register(prefix string, id uint64, src Source) {
	if r != nil {
		r.sources = append(r.sources, source{prefix, id, src})
	}
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
//
// The registry is walked twice: once to size, once to write. Every
// sample name lands in one buffer that becomes one string, and the
// samples hold substrings of it, so a snapshot makes the same handful
// of allocations however many samples it holds.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	// The registry's own metrics go to the writer by sorted name, so no
	// map order reaches it.
	named := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for name := range r.counters {
		named = append(named, name)
	}
	for name := range r.gauges {
		named = append(named, name)
	}
	for name := range r.histograms {
		named = append(named, name)
	}
	slices.Sort(named)
	w := &SampleWriter{sizing: true, buf: make([]byte, 0, 128)}
	r.write(w, named)
	w.sizing, w.buf = false, make([]byte, 0, w.size)
	w.ends, w.out = make([]int, 0, w.n), make([]Sample, 0, w.n)
	r.write(w, named)
	names := string(w.buf)
	start := 0
	for i, end := range w.ends {
		w.out[i].Name = names[start:end]
		start = end
	}
	slices.SortFunc(w.out, func(a, b Sample) int { return strings.Compare(a.Name, b.Name) })
	return w.out
}

// write passes every metric of the registry to w: the named ones, then
// each source's.
func (r *Registry) write(w *SampleWriter, named []string) {
	w.src = nil
	for _, name := range named {
		if c := r.counters[name]; c != nil {
			w.Value(name, float64(c.v))
		} else if g := r.gauges[name]; g != nil {
			w.Value(name, g.v)
		} else {
			w.Histogram(name, r.histograms[name])
		}
	}
	for i := range r.sources {
		w.src = &r.sources[i]
		w.src.src.WriteSamples(w)
	}
}

// SampleWriter receives samples during Registry.Snapshot: a Source
// writes its tallies to it by name, and the writer prefixes each name
// with the source's registered prefix and ID.
type SampleWriter struct {
	src    *source // the source writing, nil for the registry's own metrics
	sizing bool    // the first pass: count samples and name bytes only
	n      int     // samples seen while sizing
	size   int     // name bytes seen while sizing
	buf    []byte  // sizing: one name at a time; writing: every name
	ends   []int   // where each sample's name ends in buf
	out    []Sample
}

// Value writes one sample.
func (w *SampleWriter) Value(name string, v float64) {
	w.begin(name, "")
	w.end(v)
}

// Histogram writes h's buckets (each bound formatted as %g), overflow
// bucket, count, and sum under name. A nil h writes nothing.
func (w *SampleWriter) Histogram(name string, h *Histogram) {
	if h == nil {
		return
	}
	for i, b := range h.bounds {
		w.begin(name, ".bucket.")
		w.buf = strconv.AppendFloat(w.buf, b, 'g', -1, 64)
		w.end(float64(h.counts[i]))
	}
	w.begin(name, ".bucket.+inf")
	w.end(float64(h.counts[len(h.bounds)]))
	w.begin(name, ".count")
	w.end(float64(h.count))
	w.begin(name, ".sum")
	w.end(h.sum)
}

// begin appends a sample's name: the source's prefix and ID, then
// name and suffix. The caller may append more before calling end.
func (w *SampleWriter) begin(name, suffix string) {
	if s := w.src; s != nil {
		w.buf = append(w.buf, s.prefix...)
		w.buf = append(strconv.AppendUint(w.buf, s.id, 10), '.')
	}
	w.buf = append(append(w.buf, name...), suffix...)
}

// end closes the name begun last and records its value.
func (w *SampleWriter) end(v float64) {
	if w.sizing {
		w.n++
		w.size += len(w.buf)
		w.buf = w.buf[:0]
		return
	}
	w.ends = append(w.ends, len(w.buf))
	w.out = append(w.out, Sample{Value: v})
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
