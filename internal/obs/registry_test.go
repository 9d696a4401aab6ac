package obs

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"testing"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter should stay 0")
	}
	g := r.Gauge("y")
	g.Set(3)
	if g.Value() != 0 {
		t.Fatal("nil gauge should stay 0")
	}
	h := r.Histogram("z", []float64{1, 2})
	h.Observe(1.5)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram should stay empty")
	}
	r.Register("f.", 1, &testSource{})
	if snap := r.Snapshot(); snap != nil {
		t.Fatalf("nil registry snapshot = %v, want nil", snap)
	}
}

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("rounds")
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c.Value())
	}
	if r.Counter("rounds") != c {
		t.Fatal("same name should return same counter")
	}
	g := r.Gauge("depth")
	g.Set(4)
	g.Set(7)
	if g.Value() != 7 {
		t.Fatalf("gauge = %v, want 7 (last write wins)", g.Value())
	}
	h := r.Histogram("lat", []float64{10, 100})
	for _, v := range []float64{5, 10, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 565 {
		t.Fatalf("histogram count=%d sum=%v, want 4/565", h.Count(), h.Sum())
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		// Register in scrambled order; snapshot must still sort.
		r.Counter("z.last").Add(1)
		r.Gauge("a.first").Set(2)
		r.Histogram("m.mid", []float64{1, 10}).Observe(3)
		r.Register("b.src.", 4, &testSource{tally: 4})
		r.Counter("c.count").Add(9)
		return r
	}
	snap := build().Snapshot()
	if !sort.SliceIsSorted(snap, func(i, j int) bool { return snap[i].Name < snap[j].Name }) {
		t.Fatalf("snapshot not sorted: %v", snap)
	}
	// Two registries built identically snapshot identically.
	other := build().Snapshot()
	if len(snap) != len(other) {
		t.Fatalf("snapshot lengths differ: %d vs %d", len(snap), len(other))
	}
	for i := range snap {
		if snap[i] != other[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, snap[i], other[i])
		}
	}
}

func TestSnapshotHistogramExpansion(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{10, 100})
	for _, v := range []float64{5, 10, 50, 500} {
		h.Observe(v)
	}
	got := make(map[string]float64)
	for _, s := range r.Snapshot() {
		got[s.Name] = s.Value
	}
	want := map[string]float64{
		"lat.bucket.10":   2, // 5 and 10 (upper-bound inclusive)
		"lat.bucket.100":  1, // 50
		"lat.bucket.+inf": 1, // 500
		"lat.count":       4,
		"lat.sum":         565,
	}
	for name, v := range want {
		if got[name] != v {
			t.Fatalf("%s = %v, want %v (snapshot %v)", name, got[name], v, got)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("snapshot has %d samples, want %d: %v", len(got), len(want), got)
	}
}

func TestMergeSnapshots(t *testing.T) {
	a := []Sample{{"x", 1}, {"y", 2}}
	b := []Sample{{"y", 3}, {"z", 4}}
	got := MergeSnapshots(a, b)
	want := []Sample{{"x", 1}, {"y", 5}, {"z", 4}}
	if len(got) != len(want) {
		t.Fatalf("merged = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged = %v, want %v", got, want)
		}
	}
}

func TestBucketQuantileEdgeCases(t *testing.T) {
	bounds := []float64{1, 2, 4, 8}
	counts := []uint64{0, 3, 0, 1, 0} // 3 obs in (1,2], 1 in (4,8]

	// Malformed inputs return 0, never NaN or a panic.
	if got := BucketQuantile(nil, nil, 0.5); got != 0 {
		t.Errorf("empty bounds = %v, want 0", got)
	}
	if got := BucketQuantile(bounds, []uint64{1, 2}, 0.5); got != 0 {
		t.Errorf("mismatched counts = %v, want 0", got)
	}
	if got := BucketQuantile(bounds, make([]uint64, 5), 0.5); got != 0 {
		t.Errorf("all-zero counts = %v, want 0", got)
	}

	// q is clamped to [0, 1].
	lo := BucketQuantile(bounds, counts, -5)
	hi := BucketQuantile(bounds, counts, 99)
	if lo <= 1 || lo > 2 {
		t.Errorf("q<0 = %v, want in (1, 2]", lo)
	}
	if hi <= 4 || hi > 8 {
		t.Errorf("q>1 = %v, want in (4, 8]", hi)
	}

	// Median interpolates inside the (1, 2] bucket.
	if got := BucketQuantile(bounds, counts, 0.5); got <= 1 || got > 2 {
		t.Errorf("p50 = %v, want in (1, 2]", got)
	}

	// Mass in the overflow bucket reports the last finite bound.
	over := []uint64{0, 0, 0, 0, 4}
	if got := BucketQuantile(bounds, over, 0.99); got != 8 {
		t.Errorf("overflow p99 = %v, want 8 (last bound)", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{10, 100, 1000})
	for i := 0; i < 90; i++ {
		h.Observe(5) // (0, 10] bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(500) // (100, 1000] bucket
	}
	if p50 := h.Quantile(0.5); p50 <= 0 || p50 > 10 {
		t.Errorf("p50 = %v, want in (0, 10]", p50)
	}
	if p99 := h.Quantile(0.99); p99 <= 100 || p99 > 1000 {
		t.Errorf("p99 = %v, want in (100, 1000]", p99)
	}
	if q := NewHistogram([]float64{1}).Quantile(0.5); q != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", q)
	}
}

func TestSamplesEqual(t *testing.T) {
	a := []Sample{{Name: "x", Value: 1}}
	if !SamplesEqual(a, []Sample{{Name: "x", Value: 1}}) {
		t.Error("equal snapshots compared unequal")
	}
	if SamplesEqual(a, []Sample{{Name: "x", Value: 2}}) ||
		SamplesEqual(a, []Sample{{Name: "y", Value: 1}}) ||
		SamplesEqual(a, nil) {
		t.Error("unequal snapshots compared equal")
	}
	// Bitwise, where == would say otherwise: NaN equals itself, and
	// the two zeros differ.
	nan := []Sample{{Name: "x", Value: math.NaN()}}
	if !SamplesEqual(nan, []Sample{{Name: "x", Value: math.NaN()}}) {
		t.Error("identical NaN snapshots compared unequal")
	}
	if SamplesEqual([]Sample{{Name: "x", Value: 0}}, []Sample{{Name: "x", Value: math.Copysign(0, -1)}}) {
		t.Error("+0 and -0 compared equal")
	}
}

// testSource is a registered component: a tally, a gauge-like value,
// and an optional histogram, read at every Snapshot.
type testSource struct {
	tally uint64
	level float64
	hist  *Histogram
}

func (s *testSource) WriteSamples(w *SampleWriter) {
	w.Value("tally", float64(s.tally))
	w.Value("level", s.level)
	w.Histogram("lat", s.hist)
}

// oracleRegistry is the registry as it was before sources: one map
// entry per metric, a closure per source value, names built with fmt,
// and a reflective sort. Its Snapshot is the oracle for names, values
// and order.
type oracleRegistry struct {
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	gaugeFuncs map[string]func() float64
}

// register mirrors Registry.Register the way components used to:
// fmt.Sprintf for the prefix, one gauge func per value.
func (r *oracleRegistry) register(prefix string, id uint64, s *testSource) {
	p := fmt.Sprintf("%s%d.", prefix, id)
	r.gaugeFuncs[p+"tally"] = func() float64 { return float64(s.tally) }
	r.gaugeFuncs[p+"level"] = func() float64 { return s.level }
	if s.hist != nil {
		r.histograms[p+"lat"] = s.hist
	}
}

func (r *oracleRegistry) Snapshot() []Sample {
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
	var out []Sample
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
				out = append(out, Sample{fmt.Sprintf("%s.bucket.%g", name, b), float64(h.counts[i])})
			}
			out = append(out, Sample{name + ".bucket.+inf", float64(h.counts[len(h.bounds)])})
			out = append(out, Sample{name + ".count", float64(h.count)})
			out = append(out, Sample{name + ".sum", h.sum})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TestSnapshotMatchesOracle builds random registries — named counters,
// gauges and histograms plus sources at IDs 1..1000, so robot.10.
// sorts before robot.2. — and holds Snapshot to the oracle's names,
// values and order, bit for bit. Bounds include fractions, 1e300 and
// tiny values; some histograms are empty; gauges include NaN, ±Inf and
// -0.
func TestSnapshotMatchesOracle(t *testing.T) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 0.1, 1e300, -2.5e-8}
	boundSets := [][]float64{
		{1, 2, 4, 8, 16, 32, 64},
		{0.001, 0.25, 0.5, 1.5, 1e6, 1e21, 1e300},
		{-3.75, 1e-7, 123456789, 2.5e-310},
	}
	rng := rand.New(rand.NewPCG(1, 2))
	value := func() float64 {
		if rng.IntN(3) == 0 {
			return specials[rng.IntN(len(specials))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.IntN(40)-20))
	}
	histogram := func() *Histogram {
		h := NewHistogram(boundSets[rng.IntN(len(boundSets))])
		for n := rng.IntN(3) * rng.IntN(20); n > 0; n-- {
			h.Observe(value())
		}
		return h
	}
	for trial := 0; trial < 50; trial++ {
		r := NewRegistry()
		o := &oracleRegistry{map[string]*Counter{}, map[string]*Gauge{}, map[string]*Histogram{}, map[string]func() float64{}}
		for i := rng.IntN(20); i > 0; i-- {
			name := fmt.Sprintf("serve.tenant.t%d.submitted", rng.IntN(100))
			r.Counter(name).Add(rng.Uint64() >> rng.IntN(64))
			o.counters[name] = r.Counter(name)
		}
		for i := rng.IntN(20); i > 0; i-- {
			name := fmt.Sprintf("serve.gauge.g%d", rng.IntN(100))
			r.Gauge(name).Set(value())
			o.gauges[name] = r.Gauge(name)
		}
		for i := rng.IntN(5); i > 0; i-- {
			name := fmt.Sprintf("serve.hist.h%d", rng.IntN(10))
			h := r.Histogram(name, boundSets[rng.IntN(len(boundSets))])
			h.Observe(value())
			o.histograms[name] = h
		}
		k := rng.IntN(60)
		for j, id := range rng.Perm(1000) {
			if j >= k && id != 1 && id != 9 { // robots 2 and 10 always
				continue
			}
			for _, prefix := range []string{"core.robot.", "radio.robot."} {
				s := &testSource{tally: rng.Uint64() >> rng.IntN(64), level: value()}
				if prefix == "core.robot." {
					s.hist = histogram()
				}
				r.Register(prefix, uint64(id+1), s)
				o.register(prefix, uint64(id+1), s)
			}
		}
		got, want := r.Snapshot(), o.Snapshot()
		if !SamplesEqual(got, want) {
			for i := range min(len(got), len(want)) {
				if !SamplesEqual(got[i:i+1], want[i:i+1]) {
					t.Fatalf("trial %d: sample %d = %v, oracle %v (%d vs %d samples)", trial, i, got[i], want[i], len(got), len(want))
				}
			}
			t.Fatalf("trial %d: %d samples, oracle %d", trial, len(got), len(want))
		}
	}
}

// TestSnapshotAllocationsFlat pins Snapshot's cost: the same number of
// allocations for 10 as for 1 000 instrumented robots, each with a
// core-like source (tallies and a histogram) and a radio-like one.
func TestSnapshotAllocationsFlat(t *testing.T) {
	// Run the process's first collection here, not inside the
	// 1 000-robot measurement whose allocations would trigger it: run
	// first in a fresh process, that measurement read one allocation
	// more than the 10-robot one.
	runtime.GC()
	allocs := func(robots int) float64 {
		r := NewRegistry()
		r.Counter("serve.jobs").Inc()
		r.Gauge("serve.depth").Set(3)
		r.Histogram("serve.wait", []float64{1, 10}).Observe(4)
		bounds := []float64{1, 2, 4, 8, 16, 32, 64}
		for id := 1; id <= robots; id++ {
			r.Register("core.robot.", uint64(id), &testSource{tally: uint64(id), hist: NewHistogram(bounds)})
			r.Register("radio.robot.", uint64(id), &testSource{tally: 2 * uint64(id)})
		}
		return testing.AllocsPerRun(5, func() { r.Snapshot() })
	}
	small, large := allocs(10), allocs(1000)
	t.Logf("Snapshot: %v allocations at 10 robots, %v at 1000", small, large)
	if small != large {
		t.Errorf("Snapshot makes %v allocations at 10 robots but %v at 1000: its cost grows with the sample count", small, large)
	}
}
