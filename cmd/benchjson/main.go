// Command benchjson converts `go test -bench` output on stdin into a
// stable JSON report: one object per benchmark, keyed by name (the
// GOMAXPROCS suffix stripped), each holding every reported metric
// (ns/op, B/op, allocs/op, and any custom b.ReportMetric units).
// Names and metric keys are emitted sorted, so reruns on the same
// numbers produce byte-identical output.
//
// Usage:
//
//	go test -bench . -benchmem ./... | benchjson -o report.json
//
// It doubles as the CI bench gate (`make bench-gate`). With -minratio
// (repeatable) it asserts within-run speedup ratios — e.g.
//
//	-minratio 'BenchmarkScale_Deliver_Brute_N500/BenchmarkScale_Deliver_Indexed_N500>=5'
//
// requires the indexed path to stay ≥5× faster than brute force. With
// -maxmetric (repeatable) it caps a reported metric of one benchmark —
// e.g.
//
//	-maxmetric 'BenchmarkPerf_Sim_Overhead:overhead_pct<=3'
//
// caps a custom b.ReportMetric value, which is how the perf plane's
// paired overhead measurement is gated. -minmetric is the mirror image
// ('Bench:unit>=X'). Ratio and metric gates compare numbers from the
// same run on the same machine, so they hold on any runner; numbers
// across commits are the benchmark's business (`go run ./benchmark
// -compare`), not this tool's.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

var (
	output = flag.String("o", "", "write the JSON report to this file instead of stdout")

	minRatios  gateFlags
	maxMetrics gateFlags
	minMetrics gateFlags
)

func init() {
	flag.Var(&minRatios, "minratio",
		"speedup gate 'BenchA/BenchB>=X': ns/op of A divided by ns/op of B must be at least X; repeatable")
	flag.Var(&maxMetrics, "maxmetric",
		"metric cap 'Bench:unit<=X': the named benchmark's reported metric must not exceed X; repeatable")
	flag.Var(&minMetrics, "minmetric",
		"metric floor 'Bench:unit>=X': the named benchmark's reported metric must be at least X; repeatable")
}

// gateFlags collects repeated -minratio values.
type gateFlags []string

func (g *gateFlags) String() string     { return strings.Join(*g, ", ") }
func (g *gateFlags) Set(s string) error { *g = append(*g, s); return nil }

// checkRatios enforces 'A/B>=X' speedup gates against the fresh
// numbers. A missing benchmark is an error: a gate that silently stops
// measuring is worse than a failing one.
func checkRatios(cur map[string]map[string]float64, gates []string) []error {
	var errs []error
	for _, gate := range gates {
		lhs, minStr, ok := strings.Cut(gate, ">=")
		if !ok {
			errs = append(errs, fmt.Errorf("minratio %q: want 'BenchA/BenchB>=X'", gate))
			continue
		}
		slow, fast, ok := strings.Cut(lhs, "/")
		if !ok || strings.Contains(fast, "/") {
			errs = append(errs, fmt.Errorf("minratio %q: want exactly one '/' between benchmark names", gate))
			continue
		}
		minRatio, err := strconv.ParseFloat(strings.TrimSpace(minStr), 64)
		if err != nil {
			errs = append(errs, fmt.Errorf("minratio %q: bad threshold: %v", gate, err))
			continue
		}
		slowNs, okS := cur[strings.TrimSpace(slow)]["ns/op"]
		fastNs, okF := cur[strings.TrimSpace(fast)]["ns/op"]
		switch {
		case !okS:
			errs = append(errs, fmt.Errorf("minratio %q: %s not in the bench run", gate, slow))
		case !okF:
			errs = append(errs, fmt.Errorf("minratio %q: %s not in the bench run", gate, fast))
		case !(slowNs/fastNs >= minRatio):
			errs = append(errs, fmt.Errorf("minratio %q: %.0f/%.0f = %.2fx, want >= %.2fx",
				gate, slowNs, fastNs, slowNs/fastNs, minRatio))
		}
	}
	return errs
}

// checkMetrics enforces 'Bench:unit<=X' caps (op "<=", flag
// -maxmetric) or 'Bench:unit>=X' floors (op ">=", flag -minmetric)
// against the fresh numbers. Like the ratio gates, a missing benchmark
// or metric is an error: a gate that silently stops measuring is worse
// than a failing one.
func checkMetrics(cur map[string]map[string]float64, gates []string, op string) []error {
	flagName := "maxmetric"
	if op == ">=" {
		flagName = "minmetric"
	}
	var errs []error
	for _, gate := range gates {
		lhs, boundStr, ok := strings.Cut(gate, op)
		if !ok {
			errs = append(errs, fmt.Errorf("%s %q: want 'Bench:unit%sX'", flagName, gate, op))
			continue
		}
		name, unit, ok := strings.Cut(lhs, ":")
		if !ok {
			errs = append(errs, fmt.Errorf("%s %q: want ':' between benchmark name and metric unit", flagName, gate))
			continue
		}
		bound, err := strconv.ParseFloat(strings.TrimSpace(boundStr), 64)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s %q: bad bound: %v", flagName, gate, err))
			continue
		}
		metrics, okB := cur[strings.TrimSpace(name)]
		if !okB {
			errs = append(errs, fmt.Errorf("%s %q: %s not in the bench run", flagName, gate, name))
			continue
		}
		v, okM := metrics[strings.TrimSpace(unit)]
		switch {
		case !okM:
			errs = append(errs, fmt.Errorf("%s %q: %s did not report %s", flagName, gate, name, unit))
		case op == "<=" && v > bound:
			errs = append(errs, fmt.Errorf("%s %q: %.2f %s, want <= %.2f", flagName, gate, v, unit, bound))
		case op == ">=" && v < bound:
			errs = append(errs, fmt.Errorf("%s %q: %.2f %s, want >= %.2f", flagName, gate, v, unit, bound))
		}
	}
	return errs
}

// stripProcs removes the trailing -N GOMAXPROCS suffix go test adds
// to benchmark names ("BenchmarkFoo-8" → "BenchmarkFoo").
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// parse reads benchmark result lines, ignoring everything else in the
// stream (headers, PASS/ok lines, test log output).
func parse(r io.Reader) (map[string]map[string]float64, error) {
	results := make(map[string]map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// A result line is "BenchmarkName-N  iters  value unit [value unit]...".
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue
		}
		name := stripProcs(fields[0])
		metrics := results[name]
		if metrics == nil {
			metrics = make(map[string]float64)
			results[name] = metrics
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			metrics[fields[i+1]] = v
		}
	}
	return results, sc.Err()
}

func run(r io.Reader, w io.Writer) (map[string]map[string]float64, error) {
	results, err := parse(r)
	if err != nil {
		return nil, err
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no benchmark result lines on input")
	}
	// json.Marshal sorts map keys, giving the stable ordering for free.
	b, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return nil, err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return results, err
}

func main() {
	flag.Parse()
	var w io.Writer = os.Stdout
	if *output != "" {
		f, err := os.Create(*output)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	results, err := run(os.Stdin, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	errs := checkRatios(results, minRatios)
	errs = append(errs, checkMetrics(results, maxMetrics, "<=")...)
	errs = append(errs, checkMetrics(results, minMetrics, ">=")...)
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "bench gate FAIL:", e)
	}
	if len(errs) > 0 {
		os.Exit(1)
	}
	if len(minRatios) > 0 || len(maxMetrics) > 0 || len(minMetrics) > 0 {
		fmt.Fprintln(os.Stderr, "bench gates passed")
	}
}
