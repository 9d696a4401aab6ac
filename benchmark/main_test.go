package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// asMainEnv makes the test binary behave as the benchmark command, so
// the quick self-test (and the set-up probes it spawns) exercise the
// real command line without a separate build.
const asMainEnv = "ROBOREBOUND_BENCHMARK_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// benchmarkJSON mirrors BENCHMARK.json's exact key set.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadInfo `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// BENCHMARK.json is the contract later changes are judged by; the Go
// tables are what the program emits. They must say the same thing,
// within the contract's limits.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !reflect.DeepEqual(b.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(b.Paths, []string{"benchmark"}) {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: %q / %q differs from the program's", i, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the program's table:\n%v\n%v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's table")
	}

	metricNameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	haveSetup := false
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !metricNameRE.MatchString(s.Name) || !unitRE.MatchString(s.Unit) {
			t.Errorf("metric %q unit %q: illegal name or unit", s.Name, s.Unit)
		}
		if seen[s.Name] {
			t.Errorf("metric %q named twice", s.Name)
		}
		seen[s.Name] = true
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("metric %q: better %q", s.Name, s.Better)
		}
		if s.Bound < 0 || s.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside [0, 0.25]", s.Name, s.Bound)
		}
		haveSetup = haveSetup || (s.Name == "setup_s" && s.Unit == "s" && s.Better == "lower")
	}
	if !haveSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
}

// Every workload, at token size, through the real command line the
// driver uses: every metric BENCHMARK.json names is emitted, with its
// unit, no other, and every operation passes its oracle.
func TestQuickRunEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	b := readBenchmarkJSON(t)
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	for _, w := range b.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				cmd := exec.Command(self, "-quick", "-out", out,
					"--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", trace)
				cmd.Env = append(os.Environ(), asMainEnv+"=1")
				stdout, err := cmd.Output()
				if err != nil {
					t.Fatalf("%v\n%s", err, stdout)
				}
				lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
				var raw map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
					t.Fatalf("last line is not a JSON object: %v", err)
				}
				if len(raw) != 4 {
					t.Errorf("result has %d keys, want correct, attempted, failed, metrics", len(raw))
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := b.EndToEnd
				if trace == "1" {
					want = b.PerLayer
					if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".ndjson")); err != nil {
						t.Errorf("traced run left no span file: %v", err)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, s := range want {
					m, ok := res.Metrics[s.Name]
					if !ok {
						t.Errorf("metric %s not emitted", s.Name)
						continue
					}
					if m.Unit != s.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %v %q, want a finite number in %q", s.Name, m.Value, m.Unit, s.Unit)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", s.Name, m.Value)
					}
				}
				if trace == "1" {
					shares := 0.0
					for _, n := range []string{"radio_deliver", "actor_tick", "physics", "observers"} {
						shares += res.Metrics["sim.phase."+n+"_share"].Value
					}
					if math.Abs(shares-1) > 0.01 {
						t.Errorf("phase shares sum to %v, want 1 within 1%%", shares)
					}
				}
			})
		}
	}
}

func TestQuantilesAndSupportedTail(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if xs[0] != 5 {
		t.Error("median reordered its input")
	}
	if got := quantile([]float64{10, 20}, 0.25); got != 12.5 {
		t.Errorf("quantile interpolation = %v, want 12.5", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {99, 0}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	sample := make([]float64, 1000)
	for i := range sample {
		sample[i] = float64(i)
	}
	d := summarise(sample)
	if d.N != 1000 || d.P50 != 499.5 || d.TailPct != 99 || math.Abs(d.Tail-989.01) > 1e-9 {
		t.Errorf("summarise = %+v", d)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quartileSpread(ten); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := quartileSpread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	const dur = int64(8e9)
	a, b := poissonSchedule(7, 200, dur), poissonSchedule(7, 200, dur)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and rate gave different due times")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 200, dur)) {
		t.Error("another seed gave the same due times")
	}
	if reflect.DeepEqual(a[:50], poissonSchedule(7, 400, dur)[:50]) {
		t.Error("another rate gave the same due times")
	}
	if n := len(a); n < 1400 || n > 1800 {
		t.Errorf("%d arrivals in 8 s at 200/s", n)
	}
	for i, due := range a {
		if due < 0 || due >= dur || (i > 0 && due < a[i-1]) {
			t.Fatalf("due[%d] = %d out of order or out of range", i, due)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, StartNs: 20, EndNs: 50},  // overlaps 2: counted once
		{ID: 4, Parent: 1, StartNs: 90, EndNs: 120}, // clipped to the parent
		{ID: 5, Parent: 3, StartNs: 25, EndNs: 45},
	}
	selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 10, 4: 30, 5: 20} {
		if got := spans[id-1].SelfNs; got != want {
			t.Errorf("span %d self = %d, want %d", id, got, want)
		}
	}
}

func TestSpanLogNilRecordsNothing(t *testing.T) {
	var l *spanLog
	id := l.begin(0, "g", "n")
	l.end(id)
	if id != 0 || l.add(0, "g", "n", 1, 2) != 0 {
		t.Error("nil span log handed out an id")
	}
	if err := l.write(filepath.Join(t.TempDir(), "x.ndjson")); err != nil {
		t.Error(err)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "robot_ticks_per_s", Better: "higher", Bound: 0.10}
	runs := func(vs ...float64) metricRuns {
		return metricRuns{Values: vs, Median: median(vs), Spread: quartileSpread(vs)}
	}
	for _, c := range []struct {
		name string
		spec metricSpec
		a, b metricRuns
		want verdict
	}{
		{"slower by more than the bound", lower, runs(100, 101, 99), runs(115, 116, 114), worse},
		{"throughput down by more than the bound", higher, runs(100, 101, 99), runs(85, 86, 84), worse},
		{"inside the bound", lower, runs(100, 101, 99), runs(104, 105, 103), withinBound},
		{"every run faster", lower, runs(100, 101, 99), runs(90, 91, 89), better},
		{"every run of higher-is-better higher", higher, runs(100, 101, 99), runs(120, 121, 119), better},
		{"spread wider than the bound", lower, runs(100, 140, 60, 100), runs(102, 150, 70, 95), unresolved},
		{"single runs resolve on the medians", lower, runs(100), runs(80), better},
		{"single runs inside the bound", lower, runs(100), runs(95), withinBound},
		{"nothing measured", lower, runs(), runs(1), unresolved},
	} {
		if got := judge(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFilesExitsOnWorse(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opMs float64) string {
		f := resultsFile{Workloads: []workloadResults{{
			Name: "w", Attempted: 10,
			EndToEnd: map[string]metricRuns{"op_p50_ms": {Unit: "ms", Median: opMs, Values: []float64{opMs}}},
		}}}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.json", 100), write("same.json", 101), write("slow.json", 130)
	var sb strings.Builder
	if anyWorse, err := compareFiles(&sb, a, same); err != nil || anyWorse {
		t.Errorf("same code: worse=%v err=%v\n%s", anyWorse, err, sb.String())
	}
	sb.Reset()
	if anyWorse, err := compareFiles(&sb, a, slow); err != nil || !anyWorse {
		t.Errorf("30%% slower: worse=%v err=%v", anyWorse, err)
	}
	if !strings.Contains(sb.String(), "op_p50_ms") || !strings.Contains(sb.String(), string(worse)) {
		t.Errorf("no worse row for op_p50_ms:\n%s", sb.String())
	}
}

func TestCellSeedsAvoidLatchingCells(t *testing.T) {
	if got, want := matrixCellSeeds(1, 8), []uint64{1, 2, 3, 4, 5, 6, 7, 8}; !reflect.DeepEqual(got, want) {
		t.Errorf("seed 1 -> %v, want %v", got, want)
	}
	if got, want := matrixCellSeeds(10, 8), []uint64{10, 11, 12, 13, 14, 16, 17, 18}; !reflect.DeepEqual(got, want) {
		t.Errorf("seed 10 -> %v, want %v (15 latches)", got, want)
	}
	if got, want := matrixCellSeeds(254, 4), []uint64{254, 256, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("seed 254 -> %v, want %v (255 latches, then wrap)", got, want)
	}
	if !reflect.DeepEqual(matrixCellSeeds(1+matrixSeedPool, 8), matrixCellSeeds(1, 8)) {
		t.Error("seeds beyond the pool do not fold back into it")
	}
	if poolSeed(0, 48) != 1 || poolSeed(48, 48) != 48 || poolSeed(49, 48) != 1 {
		t.Error("poolSeed does not fold into 1..pool")
	}
	if got := len(matrixCells(1, false)); got != 168 {
		t.Errorf("%d matrix cells, want 3 x 7 x 8 = 168", got)
	}
}
