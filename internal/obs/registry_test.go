package obs

import (
	"math"
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
	r.RegisterGaugeFunc("f", func() float64 { return 1 })
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
		r.RegisterGaugeFunc("b.fn", func() float64 { return 4 })
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
