// Command benchmark is the repository's one benchmark: four named
// workloads, each checked against a correctness oracle, reporting the
// end-to-end metrics a user sees (tracing off) and the per-layer
// metrics that explain them (a shorter traced run plus layer drills).
// BENCHMARK.json at the repository root names the metrics and their
// regression bounds; README.md in this directory is the glossary.
//
//	go run ./benchmark                           every workload, untraced then traced
//	go run ./benchmark -workload NAME -trace 0   one measured run, result as the last line
//	go run ./benchmark -runs 10 -out DIR         ten seeds per workload, for -compare
//	go run ./benchmark -compare a.json b.json    verdict per (workload, metric)
//	go run ./benchmark -update-golden            re-pin benchmark/golden.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 24

func main() {
	var (
		cfg          runConfig
		traceFlag    int
		runs         int
		compare      bool
		updateGolden bool
		setupProbe   bool
	)
	flag.StringVar(&cfg.workload, "workload", "", "run one workload and print its result as the last line (default: all, each in a child process)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; the program under test sees only the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "length of one measured window")
	flag.IntVar(&traceFlag, "trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	flag.BoolVar(&cfg.quick, "quick", false, "token sizes: one small cell, one 21-cell pass, ~50 jobs")
	flag.StringVar(&cfg.outDir, "out", "benchmark/out", "directory for results.json and trace-<workload>.ndjson")
	flag.IntVar(&runs, "runs", 1, "without -workload: runs per workload, at seeds seed, seed+1, ...")
	flag.BoolVar(&compare, "compare", false, "compare two results files: -compare a.json b.json")
	flag.BoolVar(&updateGolden, "update-golden", false, "rewrite benchmark/golden.json from the current code at the golden seed")
	flag.BoolVar(&setupProbe, "setup-probe", false, "internal: run the workload's set-up and exit")
	flag.Parse()
	cfg.trace = traceFlag != 0

	// Sized for a two-core box: never more than four procs however
	// many the host has, so numbers from a bigger machine stay readable.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	var err error
	switch {
	case compare:
		var worse bool
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare wants two results files, got %d arguments", flag.NArg())
		} else if worse, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && worse {
			os.Exit(1)
		}
	case updateGolden:
		err = regenerateGolden(filepath.Join("benchmark", "golden.json"))
	case setupProbe:
		err = runSetupOnly(cfg)
	case cfg.workload != "":
		err = runOne(cfg)
	default:
		err = runAll(cfg, runs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}

// result is the one JSON object a single-workload run prints as the
// last line of its standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runSetupOnly(cfg runConfig) error {
	info, err := findWorkload(cfg.workload)
	if err != nil {
		return err
	}
	w := info.new(cfg.seed, cfg.quick)
	defer w.close()
	return w.setup(newRun(cfg))
}

// execute performs one measured run of one workload in this process.
func execute(cfg runConfig) (*run, result, error) {
	info, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, result{}, err
	}
	r := newRun(cfg)
	if !cfg.trace {
		setupS, err := probeSetup(cfg)
		if err != nil {
			return nil, result{}, err
		}
		r.m.set("setup_s", setupS)
	}
	w := info.new(cfg.seed, cfg.quick)
	defer w.close()
	if err := w.setup(r); err != nil {
		return nil, result{}, fmt.Errorf("%s set-up: %w", cfg.workload, err)
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
		err = w.traced(r)
		r.m.set("ops.error_share", ratio(float64(r.failed), float64(r.attempted)))
	} else {
		err = w.measure(r)
		r.m.set("peak_rss_mb", peakRSSMiB())
	}
	if err != nil {
		return nil, result{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	values, err := r.m.report(specs, !cfg.trace)
	if err != nil {
		return nil, result{}, err
	}
	if err := r.spans.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".ndjson")); err != nil {
		return nil, result{}, fmt.Errorf("write trace: %w", err)
	}
	return r, result{
		Correct:   r.failed == 0 && len(r.broken) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   values,
	}, nil
}

// runOne is the driver's entry: one workload, one run, every metric
// printed by name and unit, then the result object on the last line.
func runOne(cfg runConfig) error {
	r, res, err := execute(cfg)
	if err != nil {
		return err
	}
	printMetrics(os.Stdout, cfg.workload, res)
	samples, err := json.Marshal(r.samples)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stdout, samplesPrefix+string(samples))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(os.Stdout, string(line))
	return err
}

func printMetrics(w *os.File, workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s: %d operations attempted, %d failed, correct=%v\n", workload, res.Attempted, res.Failed, res.Correct)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
}
