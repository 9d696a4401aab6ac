package main

import (
	"fmt"
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending sample
// by linear interpolation between closest ranks; 0 for an empty one.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tailPermille are the tail percentiles a report may quote, highest
// first, in permille so the arithmetic stays in integers.
var tailPermille = []int{999, 990, 950, 900}

// supportedTail returns the highest tail percentile that still leaves
// at least ten of n samples beyond it, or 0 when n supports none: a
// p99 over 200 samples is two observations, not a distribution.
func supportedTail(n int) float64 {
	for _, pm := range tailPermille {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 10
		}
	}
	return 0
}

// dist summarises one latency sample the way every report in this
// package quotes it: the median, the highest percentile the sample
// supports, and the sample count.
type dist struct {
	N       int
	P50     float64
	TailPct float64 // 0 when N supports no tail percentile
	Tail    float64
}

// String quotes the distribution in milliseconds, sample count stated.
func (d dist) String() string {
	if d.TailPct == 0 {
		return fmt.Sprintf("p50 %.3f ms (n=%d, too few for a tail percentile)", ms(d.P50), d.N)
	}
	return fmt.Sprintf("p50 %.3f ms, p%g %.3f ms (n=%d)", ms(d.P50), d.TailPct, ms(d.Tail), d.N)
}

func summarise(xs []float64) dist {
	s := sortedCopy(xs)
	d := dist{N: len(s), P50: quantile(s, 0.5), TailPct: supportedTail(len(s))}
	if d.TailPct > 0 {
		d.Tail = quantile(s, d.TailPct/100)
	}
	return d
}

// quartileSpread is the contract's steadiness measure: the distance
// between the first and third quartile as a share of the median, with
// the quartiles taken the way Python's statistics.quantiles(n=4)
// takes them (exclusive method). 0 for fewer than two values.
func quartileSpread(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	med := quantile(s, 0.5)
	if n < 2 || med == 0 {
		return 0
	}
	at := func(k int) float64 { // k-th of 4 cut points, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		frac := pos - float64(j)
		j = min(max(j, 1), n-1)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return math.Abs(at(3)-at(1)) / math.Abs(med)
}

func ms(ns float64) float64 { return ns / 1e6 }
func us(ns float64) float64 { return ns / 1e3 }
