package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"roborebound/internal/obs/perf"
)

// environment is the header of a results file: enough to tell whether
// two files are comparable at all.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Seed       uint64  `json:"seed"`
	Runs       int     `json:"runs"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick,omitempty"`
}

func currentEnvironment(cfg runConfig, runs int) environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		Seed:       cfg.seed,
		Runs:       runs,
		Seconds:    cfg.seconds,
		Quick:      cfg.quick,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	if env.Commit == "unknown" { // `go run` does not stamp the binary
		env.Commit = gitHead(".git")
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// gitHead reads the checked-out commit from a .git directory without
// running git: HEAD, or the loose ref it names. "unknown" when the
// working directory is not the root of a git checkout.
func gitHead(gitDir string) string {
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(rev, "ref: "); ok {
		data, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref)))
		if err != nil {
			return "unknown"
		}
		rev = strings.TrimSpace(string(data))
	}
	return rev
}

// metricRuns holds one metric's value in each run of a workload, with
// the summary -compare reads.
type metricRuns struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Spread float64   `json:"spread"` // (Q3-Q1)/median over the runs; 0 for a single run
	Values []float64 `json:"values"`
}

// workloadResults is one workload's part of a results file.
type workloadResults struct {
	Name      string                `json:"name"`
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	WallS     float64               `json:"wall_s"`
	Samples   map[string]int        `json:"samples"` // of the last run
	EndToEnd  map[string]metricRuns `json:"end_to_end"`
	PerLayer  map[string]metricRuns `json:"per_layer"`
}

// resultsFile is benchmark/out/results.json.
type resultsFile struct {
	Env       environment       `json:"env"`
	Workloads []workloadResults `json:"workloads"`
}

const samplesPrefix = "#samples "

// child runs one workload in a fresh process of this binary and
// parses the result object off the last line of its output.
func child(cfg runConfig) (result, map[string]int, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, nil, fmt.Errorf("locate own binary: %w", err)
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	args := []string{
		"-workload", cfg.workload,
		"-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", trace,
		"-out", cfg.outDir,
	}
	if cfg.quick {
		args = append(args, "-quick")
	}
	var stdout bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, nil, fmt.Errorf("%s (trace %s): %w", cfg.workload, trace, err)
	}
	var last string
	samples := map[string]int{}
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, samplesPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &samples); err != nil {
				return result{}, nil, fmt.Errorf("%s: sample counts: %w", cfg.workload, err)
			}
		} else if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, nil, fmt.Errorf("%s: last output line is not a result object: %w", cfg.workload, err)
	}
	return res, samples, nil
}

// addRun appends one run's values, in the specs' order.
func addRun(into map[string]metricRuns, specs []metricSpec, values map[string]metric) {
	for _, s := range specs {
		mr := into[s.Name]
		mr.Unit = s.Unit
		mr.Values = append(mr.Values, values[s.Name].Value)
		mr.Median = median(mr.Values)
		mr.Spread = quartileSpread(mr.Values)
		into[s.Name] = mr
	}
}

// runAll runs every workload `runs` times untraced and once traced,
// each run in a fresh child process, prints every metric by name and
// unit, and writes the results file.
func runAll(cfg runConfig, runs int) error {
	if runs < 1 {
		return fmt.Errorf("-runs %d: want at least 1", runs)
	}
	file := resultsFile{Env: currentEnvironment(cfg, runs)}
	allCorrect := true
	for _, info := range workloads {
		wr := workloadResults{
			Name: info.Name, Correct: true,
			Samples:  map[string]int{},
			EndToEnd: map[string]metricRuns{}, PerLayer: map[string]metricRuns{},
		}
		one := cfg
		one.workload = info.Name
		start := perf.Now()
		for i := 0; i <= runs; i++ {
			one.seed = cfg.seed + uint64(i)
			one.trace = i == runs // the traced run comes last, at the first seed
			into, specs := wr.EndToEnd, endToEnd
			if one.trace {
				one.seed, into, specs = cfg.seed, wr.PerLayer, perLayer
			}
			fmt.Fprintf(os.Stderr, "benchmark: %s seed %d trace %v\n", info.Name, one.seed, one.trace)
			res, samples, err := child(one)
			if err != nil {
				return err
			}
			addRun(into, specs, res.Metrics)
			wr.Correct = wr.Correct && res.Correct
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			for k, v := range samples {
				wr.Samples[k] = v
			}
		}
		wr.WallS = float64(perf.Now()-start) / 1e9
		allCorrect = allCorrect && wr.Correct
		file.Workloads = append(file.Workloads, wr)
		printWorkload(wr)
	}

	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, "results.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("results: %s (commit %s, %s, GOMAXPROCS %d of %d, %s)\n",
		path, file.Env.Commit, file.Env.GoVersion, file.Env.GOMAXPROCS, file.Env.NumCPU, file.Env.CPUModel)
	if !allCorrect {
		return fmt.Errorf("at least one workload failed its oracle")
	}
	return nil
}

func printWorkload(wr workloadResults) {
	fmt.Printf("%s: %d operations attempted, %d failed, correct=%v, %.1f s\n",
		wr.Name, wr.Attempted, wr.Failed, wr.Correct, wr.WallS)
	for _, group := range []struct {
		specs  []metricSpec
		values map[string]metricRuns
	}{{endToEnd, wr.EndToEnd}, {perLayer, wr.PerLayer}} {
		for _, s := range group.specs {
			mr := group.values[s.Name]
			fmt.Printf("  %-34s %14.6g %-6s", s.Name, mr.Median, mr.Unit)
			if len(mr.Values) > 1 {
				fmt.Printf(" spread %.2f%% over %d runs", 100*mr.Spread, len(mr.Values))
			}
			fmt.Println()
		}
	}
}
