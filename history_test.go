package roborebound

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// BENCH_history.ndjson holds every benchmark number the per-PR ledgers
// measured: one line per PR and source, rows named as BENCHMARK.json
// names them. Allocation counts and bytes are deterministic per seed,
// so their rows keep the parent's and the change's values; every other
// metric is host time or host memory, which wanders between sessions,
// so its rows keep only the same-session change/parent median ratio.

// historyLine is one line of BENCH_history.ndjson.
type historyLine struct {
	PR     int          `json:"pr"`
	Source string       `json:"source"` // ledger, driver or rerun
	Commit string       `json:"commit"`
	Parent string       `json:"parent"`
	Env    historyEnv   `json:"env"`
	Method string       `json:"method"`
	Note   string       `json:"note,omitempty"`
	Rows   []historyRow `json:"rows"`
}

type historyEnv struct {
	Go         string `json:"go"`
	OSArch     string `json:"os_arch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Host       string `json:"host"`
}

// historyRow is one metric on one workload. A deterministic row sets
// Parent and Change; any other row sets Ratio (change/parent medians).
// Pairs and Wins are set where the source counted them.
type historyRow struct {
	Workload string   `json:"workload"`
	Metric   string   `json:"metric"`
	Parent   *float64 `json:"parent,omitempty"`
	Change   *float64 `json:"change,omitempty"`
	Ratio    *float64 `json:"ratio,omitempty"`
	Pairs    *int     `json:"pairs,omitempty"`
	Wins     *int     `json:"wins,omitempty"`
}

// deterministicMetrics are the end-to-end metrics whose readings repeat
// seed for seed; only these rows may store absolute values.
var deterministicMetrics = map[string]bool{
	"allocs_per_robot_tick":      true,
	"alloc_bytes_per_robot_tick": true,
}

// historySources in the order a PR's lines appear: the PR's own ledger,
// the benchmark's judging run, a later re-measurement.
var historySources = []string{"ledger", "driver", "rerun"}

// decodeHistory decodes BENCH_history.ndjson strictly: one object per
// line, and a field the schema does not name is an error.
func decodeHistory(data []byte) ([]historyLine, error) {
	var lines []historyLine
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		var l historyLine
		if err := dec.Decode(&l); err != nil {
			return nil, fmt.Errorf("line %d: %v", n, err)
		}
		if dec.More() {
			return nil, fmt.Errorf("line %d: more than one object", n)
		}
		lines = append(lines, l)
	}
	return lines, sc.Err()
}

// benchmarkNames reads the workload and metric names BENCHMARK.json
// defines.
func benchmarkNames(t *testing.T) (workloads, metrics map[string]bool) {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
	}
	var b struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	workloads, metrics = map[string]bool{}, map[string]bool{}
	for _, w := range b.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range slices.Concat(b.EndToEnd, b.PerLayer) {
		metrics[m.Name] = true
	}
	return workloads, metrics
}

// checkHistory returns every way lines break the file's contract.
func checkHistory(lines []historyLine, workloads, metrics map[string]bool, verdicts map[int]bool) []string {
	var errs []string
	bad := func(l historyLine, format string, args ...any) {
		errs = append(errs, fmt.Sprintf("PR %d %s: %s", l.PR, l.Source, fmt.Sprintf(format, args...)))
	}
	hexCommit := regexp.MustCompile(`^[0-9a-f]{7,40}$`)
	prev := -1
	for i, l := range lines {
		src := slices.Index(historySources, l.Source)
		if src < 0 {
			bad(l, "unknown source %q", l.Source)
		}
		if key := l.PR*len(historySources) + src; l.PR <= 0 || key <= prev {
			bad(l, "line %d is out of PR order", i+1)
		} else {
			prev = key
		}
		if !verdicts[l.PR] {
			bad(l, "EXPERIMENTS.md has no \"### PR %d\" verdict heading", l.PR)
		}
		if !hexCommit.MatchString(l.Commit) || !hexCommit.MatchString(l.Parent) {
			bad(l, "commit %q or parent %q is not a commit hash", l.Commit, l.Parent)
		}
		if e := l.Env; e.Go == "" || e.OSArch == "" || e.GOMAXPROCS <= 0 || e.CPU == "" || e.Host == "" {
			bad(l, "incomplete env stamp %+v", e)
		}
		if l.Method == "" || len(l.Rows) == 0 {
			bad(l, "no method or no rows")
		}
		seen := map[[2]string]bool{}
		for _, r := range l.Rows {
			if !workloads[r.Workload] {
				bad(l, "workload %q is not in BENCHMARK.json", r.Workload)
			}
			if !metrics[r.Metric] {
				bad(l, "metric %q is not in BENCHMARK.json", r.Metric)
			}
			if k := [2]string{r.Workload, r.Metric}; seen[k] {
				bad(l, "%s %s appears twice", r.Workload, r.Metric)
			} else {
				seen[k] = true
			}
			if deterministicMetrics[r.Metric] {
				if r.Parent == nil || r.Change == nil || *r.Parent <= 0 || *r.Change <= 0 || r.Ratio != nil || r.Wins != nil {
					bad(l, "%s %s: a deterministic row stores its parent and change values, and only those", r.Workload, r.Metric)
				}
			} else if r.Ratio == nil || *r.Ratio <= 0 || r.Parent != nil || r.Change != nil {
				bad(l, "%s %s: a time row stores its change/parent ratio and no absolute value", r.Workload, r.Metric)
			}
			if r.Pairs != nil && *r.Pairs <= 0 || r.Wins != nil && (r.Pairs == nil || *r.Wins < 0 || *r.Wins > *r.Pairs) {
				bad(l, "%s %s: wins must lie within a counted number of pairs", r.Workload, r.Metric)
			}
		}
	}
	return errs
}

// verdictHeadings reads the PRs that have a "### PR N" heading in
// EXPERIMENTS.md.
func verdictHeadings(t *testing.T) map[int]bool {
	t.Helper()
	data, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	out := map[int]bool{}
	for _, m := range regexp.MustCompile(`(?m)^### PR (\d+)\b`).FindAllSubmatch(data, -1) {
		var n int
		fmt.Sscan(string(m[1]), &n)
		out[n] = true
	}
	return out
}

// TestBenchHistory holds BENCH_history.ndjson to its contract and logs
// each workload's allocations per robot-tick, PR by PR (`make history`).
func TestBenchHistory(t *testing.T) {
	data, err := os.ReadFile("BENCH_history.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	lines, err := decodeHistory(data)
	if err != nil {
		t.Fatalf("BENCH_history.ndjson: %v", err)
	}
	workloads, metrics := benchmarkNames(t)
	for _, e := range checkHistory(lines, workloads, metrics, verdictHeadings(t)) {
		t.Error(e)
	}

	names := make([]string, 0, len(workloads))
	for w := range workloads {
		names = append(names, w)
	}
	slices.Sort(names)
	for _, w := range names {
		var steps []string
		for _, l := range lines {
			for _, r := range l.Rows {
				if r.Workload == w && r.Metric == "allocs_per_robot_tick" && r.Parent != nil && r.Change != nil {
					steps = append(steps, fmt.Sprintf("PR %d %s %.5g → %.5g", l.PR, l.Source, *r.Parent, *r.Change))
				}
			}
		}
		t.Logf("%s allocs_per_robot_tick:\n\t%s", w, strings.Join(steps, "\n\t"))
	}
}

// experimentsBudget caps EXPERIMENTS.md: the numbers live in
// BENCH_history.ndjson, so the file keeps paper-vs-measured and one
// short verdict paragraph per PR.
const experimentsBudget = 60_000

// TestExperimentsUnderBudget fails once EXPERIMENTS.md outgrows its
// budget; the fix is to fold old verdicts, not to raise the budget.
func TestExperimentsUnderBudget(t *testing.T) {
	info, err := os.Stat("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := info.Size(); n > experimentsBudget {
		t.Errorf("EXPERIMENTS.md is %d bytes, over its %d-byte budget", n, experimentsBudget)
	}
}

// TestBenchHistoryRefusesBrokenLines: each way a line can break the
// contract is caught, on lines derived from a valid one.
func TestBenchHistoryRefusesBrokenLines(t *testing.T) {
	if _, err := decodeHistory([]byte(`{"pr":1,"source":"ledger","rows":[],"commits":2}`)); err == nil {
		t.Error("a line with an unknown field decoded")
	}
	workloads, metrics := benchmarkNames(t)
	verdicts := map[int]bool{1: true, 2: true}
	f := func(v float64) *float64 { return &v }
	n := func(v int) *int { return &v }
	valid := func() []historyLine {
		env := historyEnv{Go: "go1.24.0", OSArch: "linux/amd64", GOMAXPROCS: 2, CPU: "cpu", Host: "host"}
		return []historyLine{
			{PR: 1, Source: "ledger", Commit: "aaaaaaa", Parent: "bbbbbbb", Env: env, Method: "m", Rows: []historyRow{
				{Workload: "flock_dense_n300", Metric: "allocs_per_robot_tick", Parent: f(2), Change: f(1), Pairs: n(3)},
				{Workload: "flock_dense_n300", Metric: "op_p50_ms", Ratio: f(0.9), Pairs: n(3), Wins: n(2)},
			}},
			{PR: 2, Source: "ledger", Commit: "ccccccc", Parent: "aaaaaaa", Env: env, Method: "m", Rows: []historyRow{
				{Workload: "serve_tiny_jobs", Metric: "runtime.gc_cpu_share", Ratio: f(1.1)},
			}},
		}
	}
	if errs := checkHistory(valid(), workloads, metrics, verdicts); len(errs) != 0 {
		t.Fatalf("valid lines refused: %v", errs)
	}
	for _, tc := range []struct {
		name   string
		mutate func(ls []historyLine) []historyLine
	}{
		{"out of PR order", func(ls []historyLine) []historyLine { return []historyLine{ls[1], ls[0]} }},
		{"same PR and source twice", func(ls []historyLine) []historyLine { ls[1].PR = 1; return ls }},
		{"unknown source", func(ls []historyLine) []historyLine { ls[0].Source = "guess"; return ls }},
		{"no verdict heading", func(ls []historyLine) []historyLine { ls[1].PR = 3; return ls }},
		{"unknown workload", func(ls []historyLine) []historyLine { ls[0].Rows[0].Workload = "flock_dense"; return ls }},
		{"unknown metric", func(ls []historyLine) []historyLine { ls[0].Rows[1].Metric = "op_p90_ms"; return ls }},
		{"time row as an absolute", func(ls []historyLine) []historyLine {
			ls[0].Rows[1].Ratio, ls[0].Rows[1].Parent, ls[0].Rows[1].Change = nil, f(3000), f(2700)
			return ls
		}},
		{"time row with an absolute beside its ratio", func(ls []historyLine) []historyLine { ls[1].Rows[0].Change = f(0.01); return ls }},
		{"deterministic row as a ratio", func(ls []historyLine) []historyLine {
			ls[0].Rows[0].Parent, ls[0].Rows[0].Change, ls[0].Rows[0].Ratio = nil, nil, f(0.5)
			return ls
		}},
		{"more wins than pairs", func(ls []historyLine) []historyLine { ls[0].Rows[1].Wins = n(4); return ls }},
		{"no env stamp", func(ls []historyLine) []historyLine { ls[0].Env = historyEnv{}; return ls }},
	} {
		if errs := checkHistory(tc.mutate(valid()), workloads, metrics, verdicts); len(errs) == 0 {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
