// Package metrics provides the time-series and summary machinery the
// experiment harness uses to regenerate the paper's tables and
// figures: per-robot traces (distance to goal, storage), aggregate
// bandwidth accounting, and basic statistics.
package metrics

import (
	"math"
	"sort"

	"roborebound/internal/wire"
)

// Series is a sampled time series.
type Series struct {
	Times  []wire.Tick
	Values []float64
}

// Add appends one sample.
func (s *Series) Add(t wire.Tick, v float64) {
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// Final returns the last value (0 if empty).
func (s *Series) Final() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	return s.Values[len(s.Values)-1]
}

// Mean returns the arithmetic mean of vs (0 if empty).
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using
// nearest-rank on a sorted copy.
func Percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
