package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: roborebound/internal/obs
cpu: whatever
BenchmarkEmitDisabled-8      	1000000000	         0.2512 ns/op	       0 B/op	       0 allocs/op
BenchmarkEmitCollector-8     	31415926	        38.10 ns/op	      90 B/op	       0 allocs/op
BenchmarkSweep_Serial-8      	       1	1234567890 ns/op	         8.000 cells
BenchmarkAblation_Fmax/fmax1-8	     100	    500000 ns/op	      1200 auditB/s
PASS
ok  	roborebound	1.234s
`

func TestRun(t *testing.T) {
	var buf bytes.Buffer
	if _, err := run(strings.NewReader(sample), &buf); err != nil {
		t.Fatal(err)
	}
	var got map[string]map[string]float64
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %v", len(got), got)
	}
	if m := got["BenchmarkEmitDisabled"]; m["ns/op"] != 0.2512 || m["allocs/op"] != 0 {
		t.Errorf("EmitDisabled = %v", m)
	}
	if m := got["BenchmarkEmitCollector"]; m["B/op"] != 90 {
		t.Errorf("EmitCollector = %v", m)
	}
	// GOMAXPROCS suffix stripped, sub-benchmark slash kept, custom
	// b.ReportMetric units captured.
	if m := got["BenchmarkSweep_Serial"]; m["cells"] != 8 {
		t.Errorf("Sweep_Serial = %v", m)
	}
	if m := got["BenchmarkAblation_Fmax/fmax1"]; m["auditB/s"] != 1200 {
		t.Errorf("Ablation sub-bench = %v", m)
	}
	for name := range got {
		if strings.HasSuffix(name, "-8") {
			t.Errorf("GOMAXPROCS suffix not stripped: %q", name)
		}
	}

	// Byte-identical on rerun: the report is sorted throughout.
	var buf2 bytes.Buffer
	if _, err := run(strings.NewReader(sample), &buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("reports differ across identical inputs")
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	var buf bytes.Buffer
	if _, err := run(strings.NewReader("PASS\nok x 0.1s\n"), &buf); err == nil {
		t.Error("no benchmark lines should be an error, got none")
	}
}

func TestStripProcs(t *testing.T) {
	cases := map[string]string{
		"BenchmarkFoo-8":        "BenchmarkFoo",
		"BenchmarkFoo-128":      "BenchmarkFoo",
		"BenchmarkFoo":          "BenchmarkFoo",
		"BenchmarkFoo/sub-2-4":  "BenchmarkFoo/sub-2",
		"BenchmarkFoo/case-abc": "BenchmarkFoo/case-abc",
	}
	for in, want := range cases {
		if got := stripProcs(in); got != want {
			t.Errorf("stripProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

func report(pairs map[string]float64) map[string]map[string]float64 {
	out := make(map[string]map[string]float64, len(pairs))
	for name, ns := range pairs {
		out[name] = map[string]float64{"ns/op": ns}
	}
	return out
}

func TestCheckRatios(t *testing.T) {
	cur := report(map[string]float64{"BenchmarkBrute": 1000, "BenchmarkIndexed": 150})
	if errs := checkRatios(cur, []string{"BenchmarkBrute/BenchmarkIndexed>=5"}); len(errs) != 0 {
		t.Fatalf("6.7x should satisfy >=5: %v", errs)
	}
	for _, gate := range []string{
		"BenchmarkBrute/BenchmarkIndexed>=7",  // ratio too low
		"BenchmarkBrute/BenchmarkMissing>=2",  // unknown benchmark
		"BenchmarkBrute>=2",                   // no '/'
		"BenchmarkBrute/BenchmarkIndexed",     // no '>='
		"BenchmarkBrute/BenchmarkIndexed>=xx", // bad threshold
		"A/B/C>=2",                            // ambiguous name split
	} {
		if errs := checkRatios(cur, []string{gate}); len(errs) != 1 {
			t.Errorf("gate %q: want exactly one error, got %v", gate, errs)
		}
	}
}

func TestCheckMetrics(t *testing.T) {
	cur := map[string]map[string]float64{
		"BenchmarkOverhead": {"ns/op": 1e9, "overhead_pct": 1.4},
	}
	// Under the cap — including a negative reading (paired noise) — passes.
	if errs := checkMetrics(cur, []string{"BenchmarkOverhead:overhead_pct<=3"}, "<="); len(errs) != 0 {
		t.Fatalf("1.4 should satisfy <=3: %v", errs)
	}
	cur["BenchmarkOverhead"]["overhead_pct"] = -0.5
	if errs := checkMetrics(cur, []string{"BenchmarkOverhead:overhead_pct<=3"}, "<="); len(errs) != 0 {
		t.Fatalf("-0.5 should satisfy <=3: %v", errs)
	}
	cur["BenchmarkOverhead"]["overhead_pct"] = 4.2
	for _, gate := range []string{
		"BenchmarkOverhead:overhead_pct<=3", // over the cap
		"BenchmarkMissing:overhead_pct<=3",  // unknown benchmark
		"BenchmarkOverhead:missing_unit<=3", // metric not reported
		"BenchmarkOverhead<=3",              // no ':'
		"BenchmarkOverhead:overhead_pct",    // no '<='
		"BenchmarkOverhead:overhead_pct<=x", // bad cap
	} {
		if errs := checkMetrics(cur, []string{gate}, "<="); len(errs) != 1 {
			t.Errorf("gate %q: want exactly one error, got %v", gate, errs)
		}
	}
}

func TestCheckMetricsFloor(t *testing.T) {
	cur := map[string]map[string]float64{
		"BenchmarkServe_Load": {"sessions": 1000, "errors": 0},
	}
	// Exactly at the floor passes.
	floors := []string{"BenchmarkServe_Load:sessions>=1000"}
	if errs := checkMetrics(cur, floors, ">="); len(errs) != 0 {
		t.Fatalf("1000 should satisfy >=1000: %v", errs)
	}
	cur["BenchmarkServe_Load"]["sessions"] = 999
	for _, gate := range []string{
		"BenchmarkServe_Load:sessions>=1000", // under the floor
		"BenchmarkMissing:sessions>=1000",    // unknown benchmark
		"BenchmarkServe_Load:missing>=1",     // metric not reported
		"BenchmarkServe_Load>=1",             // no ':'
		"BenchmarkServe_Load:sessions",       // no '>='
		"BenchmarkServe_Load:sessions>=x",    // bad bound
	} {
		if errs := checkMetrics(cur, []string{gate}, ">="); len(errs) != 1 {
			t.Errorf("gate %q: want exactly one error, got %v", gate, errs)
		}
	}
}
