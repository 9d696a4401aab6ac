package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSeriesBasics(t *testing.T) {
	var s Series
	if s.Len() != 0 || s.Final() != 0 {
		t.Error("empty series should report zeros")
	}
	s.Add(0, 3)
	s.Add(4, 1)
	s.Add(8, 5)
	if s.Len() != 3 || s.Final() != 5 {
		t.Errorf("series stats wrong: %+v", s)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("Mean wrong")
	}
}

func TestPercentile(t *testing.T) {
	vs := []float64{5, 1, 3, 2, 4}
	if Percentile(vs, 50) != 3 {
		t.Errorf("median = %v", Percentile(vs, 50))
	}
	if Percentile(vs, 100) != 5 {
		t.Errorf("p100 = %v", Percentile(vs, 100))
	}
	if Percentile(vs, 0) != 1 {
		t.Errorf("p0 = %v", Percentile(vs, 0))
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile != 0")
	}
	// Input must not be mutated (sorted copy).
	if vs[0] != 5 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentileEdges(t *testing.T) {
	// A single sample is every percentile.
	for _, p := range []float64{0, 50, 100} {
		if got := Percentile([]float64{42}, p); got != 42 {
			t.Errorf("single-sample p%v = %v", p, got)
		}
	}
	// Unsorted input: nearest-rank must see the sorted order.
	vs := []float64{9, 0, 7, 3}
	if got := Percentile(vs, 0); got != 0 {
		t.Errorf("unsorted p0 = %v", got)
	}
	if got := Percentile(vs, 100); got != 9 {
		t.Errorf("unsorted p100 = %v", got)
	}
	if got := Percentile(vs, 25); got != 0 {
		t.Errorf("unsorted p25 = %v (rank 1 of sorted [0 3 7 9])", got)
	}
	if got := Percentile(vs, 75); got != 7 {
		t.Errorf("unsorted p75 = %v (rank 3 of sorted [0 3 7 9])", got)
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(vs []float64, a, b uint8) bool {
		for _, v := range vs {
			if math.IsNaN(v) {
				return true
			}
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return Percentile(vs, pa) <= Percentile(vs, pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
