package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// verdict is -compare's reading of one (workload, metric) row.
type verdict string

const (
	better      verdict = "better"
	worse       verdict = "worse"
	withinBound verdict = "within-bound"
	// unresolved: the run-to-run spread of either side is wider than the
	// bound, so "no worse" cannot be told from noise.
	unresolved verdict = "unresolved"
)

// judge applies a metric's direction and bound to two sets of runs, a
// (the parent) and b (the change). b is worse when its median is
// worse than a's by more than the bound. Otherwise, where either
// side's quartile spread exceeds the bound the row is unresolved,
// unless every run of b reads better than every run of a. A single
// run per side has no spread, so it resolves on the medians alone.
func judge(spec metricSpec, a, b metricRuns) verdict {
	if len(a.Values) == 0 || len(b.Values) == 0 {
		return unresolved
	}
	sign := 1.0 // positive change = worse
	if spec.Better == "higher" {
		sign = -1
	}
	change := 0.0
	if a.Median != 0 {
		change = sign * (b.Median - a.Median) / math.Abs(a.Median)
	} else if b.Median != a.Median {
		change = sign * (b.Median - a.Median)
	}
	if change > spec.Bound {
		return worse
	}
	everyBetter := true
	for _, x := range a.Values {
		for _, y := range b.Values {
			if sign*(y-x) >= 0 {
				everyBetter = false
			}
		}
	}
	switch {
	case everyBetter && (len(a.Values) > 1 || -change > spec.Bound):
		return better
	case a.Spread > spec.Bound || b.Spread > spec.Bound:
		return unresolved
	}
	return withinBound
}

func readResults(path string) (resultsFile, error) {
	var f resultsFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareFiles prints one row per (workload, end-to-end metric) with
// its verdict, then the per-layer rows, which carry no bound and so
// no verdict. It reports whether any row is worse or any workload
// fails more operations than before.
func compareFiles(w io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a: %s  commit %s, %s, GOMAXPROCS %d, %s, %d runs\n", pathA, a.Env.Commit, a.Env.GoVersion, a.Env.GOMAXPROCS, a.Env.CPUModel, a.Env.Runs)
	fmt.Fprintf(w, "b: %s  commit %s, %s, GOMAXPROCS %d, %s, %d runs\n", pathB, b.Env.Commit, b.Env.GoVersion, b.Env.GOMAXPROCS, b.Env.CPUModel, b.Env.Runs)
	byName := make(map[string]workloadResults, len(b.Workloads))
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	tally := map[verdict]int{}
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(w, "%s: missing from %s\n", wa.Name, pathB)
			anyWorse = true
			continue
		}
		fmt.Fprintf(w, "%s: failed %d of %d -> %d of %d\n", wa.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		if ratio(float64(wb.Failed), float64(wb.Attempted)) > ratio(float64(wa.Failed), float64(wa.Attempted)) {
			fmt.Fprintf(w, "  %-34s %s\n", "error_share", worse)
			anyWorse = true
		}
		for _, spec := range endToEnd {
			ra, rb := wa.EndToEnd[spec.Name], wb.EndToEnd[spec.Name]
			v := judge(spec, ra, rb)
			tally[v]++
			anyWorse = anyWorse || v == worse
			fmt.Fprintf(w, "  %-34s %14.6g -> %-14.6g %-6s %+7.2f%%  bound %.0f%%  spread %.1f%%/%.1f%%  %s\n",
				spec.Name, ra.Median, rb.Median, spec.Unit, 100*ratio(rb.Median-ra.Median, math.Abs(ra.Median)),
				100*spec.Bound, 100*ra.Spread, 100*rb.Spread, v)
		}
		for _, spec := range perLayer {
			ra, rb := wa.PerLayer[spec.Name], wb.PerLayer[spec.Name]
			fmt.Fprintf(w, "    %-32s %14.6g -> %-14.6g %-6s %+7.2f%%\n",
				spec.Name, ra.Median, rb.Median, spec.Unit, 100*ratio(rb.Median-ra.Median, math.Abs(ra.Median)))
		}
	}
	fmt.Fprintf(w, "rows: %d better, %d worse, %d within-bound, %d unresolved\n",
		tally[better], tally[worse], tally[withinBound], tally[unresolved])
	return anyWorse, nil
}
