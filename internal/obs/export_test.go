package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"roborebound/internal/wire"
)

var exportFixture = []Event{
	{Tick: 4, Robot: 1, Kind: EvCheckpointFlush},
	{Tick: 4, Robot: 1, Kind: EvAuditRoundStart, Value: 210},
	{Tick: 4, Robot: 1, Kind: EvFrameTx, Peer: 2, Value: 96},
	{Tick: 5, Robot: 2, Kind: EvFrameRx, Peer: 1, Value: 96},
	{Tick: 5, Robot: 3, Kind: EvFrameDropped, Peer: 1, Cause: CauseLoss, Value: 96},
	{Tick: 6, Robot: 1, Kind: EvTokenGranted, Peer: 2, Value: 1},
	{Tick: 6, Robot: 1, Kind: EvAuditRoundComplete, Value: 2},
	{Tick: 9, Robot: 3, Kind: EvInvariantViolation, Detail: "bti: overdue"},
}

func TestWriteNDJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, exportFixture); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(exportFixture) {
		t.Fatalf("%d lines, want %d", len(lines), len(exportFixture))
	}
	// Every line is valid standalone JSON.
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d invalid JSON: %v\n%s", i, err, line)
		}
	}
	// Spot-check field presence/omission.
	if want := `{"tick":4,"robot":1,"kind":"checkpoint-flush"}`; lines[0] != want {
		t.Fatalf("line 0 = %s, want %s", lines[0], want)
	}
	if want := `{"tick":5,"robot":3,"kind":"frame-dropped","peer":1,"cause":"loss","value":96}`; lines[4] != want {
		t.Fatalf("line 4 = %s, want %s", lines[4], want)
	}
	if !strings.Contains(lines[7], `"detail":"bti: overdue"`) {
		t.Fatalf("line 7 missing detail: %s", lines[7])
	}
	// Byte-identical across runs.
	var buf2 bytes.Buffer
	if err := WriteNDJSON(&buf2, exportFixture); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("NDJSON output not byte-identical across writes")
	}
}

func TestTickMapping(t *testing.T) {
	for _, c := range []struct {
		tick wire.Tick
		want float64
	}{
		{0, 0},
		{1, 250000},
		{4, 1e6}, // one second of ticks
		{9, 2.25e6},
	} {
		if got := micros(c.tick); got != c.want {
			t.Errorf("micros(%d) = %v, want %v", c.tick, got, c.want)
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, exportFixture); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("chrome trace is not valid JSON:\n%s", buf.String())
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var sawRoundSlice, sawDropInstant, sawMeta bool
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			if ev["name"] == "audit-round" {
				sawRoundSlice = true
				// 4 ticks @4tps start, 2-tick duration = 500000 µs.
				if ev["ts"].(float64) != 1e6 || ev["dur"].(float64) != 500000 {
					t.Fatalf("round slice ts/dur = %v/%v", ev["ts"], ev["dur"])
				}
			}
		case "i":
			if ev["name"] == "frame-dropped" {
				sawDropInstant = true
			}
		case "M":
			sawMeta = true
		}
	}
	if !sawRoundSlice || !sawDropInstant || !sawMeta {
		t.Fatalf("missing trace shapes: slice=%v drop=%v meta=%v",
			sawRoundSlice, sawDropInstant, sawMeta)
	}
}

func TestWriteChromeTraceOpenRound(t *testing.T) {
	events := []Event{{Tick: 2, Robot: 1, Kind: EvAuditRoundStart, Value: 100}}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "audit-round (open)") {
		t.Fatalf("unterminated round not rendered:\n%s", buf.String())
	}
}

func TestWriteMetricsJSON(t *testing.T) {
	snap := []Sample{{"a.count", 3}, {"b.ratio", 0.5}}
	var buf bytes.Buffer
	if err := WriteMetricsJSON(&buf, snap); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("metrics snapshot is not valid JSON:\n%s", buf.String())
	}
	var m map[string]float64
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m["a.count"] != 3 || m["b.ratio"] != 0.5 {
		t.Fatalf("round-trip mismatch: %v", m)
	}
	// Empty snapshot still valid.
	buf.Reset()
	if err := WriteMetricsJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("empty snapshot invalid:\n%s", buf.String())
	}
}

func TestWriteChromeTraceNonMonotonicRound(t *testing.T) {
	// A round-complete event stamped BEFORE its start (possible with a
	// skewed trusted clock: events are emitted on the robot's local
	// clock) must clamp the slice duration to 0, never emit a negative
	// dur or NaN.
	events := []Event{
		{Tick: 10, Robot: 1, Kind: EvAuditRoundStart, Value: 7},
		{Tick: 6, Robot: 1, Kind: EvAuditRoundComplete, Value: 7},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("non-monotonic trace is not valid JSON:\n%s", buf.String())
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" && ev["name"] == "audit-round" {
			found = true
			if dur := ev["dur"].(float64); dur != 0 {
				t.Fatalf("backwards round slice dur = %v, want clamped 0", dur)
			}
		}
	}
	if !found {
		t.Fatalf("round slice missing:\n%s", buf.String())
	}
}

func TestChromeTraceLines(t *testing.T) {
	// The exported per-event form (used by the merged perf trace) must
	// agree with WriteChromeTrace's document body line for line.
	lines := ChromeTraceLines(exportFixture)
	if len(lines) == 0 {
		t.Fatal("no lines")
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, exportFixture); err != nil {
		t.Fatal(err)
	}
	for _, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("line is not standalone JSON: %s", line)
		}
		if !strings.Contains(buf.String(), line) {
			t.Fatalf("document missing line: %s", line)
		}
	}
}

// jsonStringRows are strings strconv.Quote escapes outside JSON's
// grammar (\a, \v, \xXX, \UXXXXXXXX), beside ones it renders validly.
var jsonStringRows = []string{
	"bell \a", "vtab \v", "\x01", "del \x7f", "bad \xff byte", "tag \U000e0001",
	"two \xff\xfe invalid, one run", "truncated \xe2\x82", "surrogate \xed\xa0\x80",
	"quote\" slash\\ \b\f\n\r\t", "nbsp \xc2\xa0 line-sep \xe2\x80\xa8", "non-ascii µs é 🤖", "plain",
}

// TestJSONStringIsJSON: every exporter that writes a caller's string —
// an event detail in NDJSON and in a Chrome trace line, a metric name
// in metrics.json — writes valid JSON that decodes to the string, with
// each run of invalid UTF-8 read as one U+FFFD.
func TestJSONStringIsJSON(t *testing.T) {
	for _, s := range jsonStringRows {
		want := strings.ToValidUTF8(s, string(utf8.RuneError))
		ev := []Event{{Tick: 1, Robot: 1, Kind: EvInvariantViolation, Detail: s}}

		var nd bytes.Buffer
		if err := WriteNDJSON(&nd, ev); err != nil {
			t.Fatal(err)
		}
		var line struct{ Detail string }
		decodeJSON(t, "WriteNDJSON", s, nd.Bytes(), &line)
		if line.Detail != want {
			t.Errorf("WriteNDJSON(%q): detail decodes to %q, want %q", s, line.Detail, want)
		}

		lines := ChromeTraceLines(ev)
		var inst struct{ Args struct{ Detail string } }
		decodeJSON(t, "ChromeTraceLines", s, []byte(lines[len(lines)-1]), &inst)
		if inst.Args.Detail != want {
			t.Errorf("ChromeTraceLines(%q): detail decodes to %q, want %q", s, inst.Args.Detail, want)
		}

		var metrics map[string]float64
		decodeJSON(t, "AppendMetricsJSON", s, AppendMetricsJSON(nil, []Sample{{s, 1}}), &metrics)
		if _, ok := metrics[want]; !ok || len(metrics) != 1 {
			t.Errorf("AppendMetricsJSON(%q): decodes to %v, want the one name %q", s, metrics, want)
		}
	}
}

func decodeJSON(t *testing.T, writer, s string, data []byte, v any) {
	t.Helper()
	if !json.Valid(data) {
		t.Fatalf("%s(%q) is not valid JSON: %s", writer, s, data)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s(%q): %v", writer, s, err)
	}
}

// FuzzJSONString: appendJSONString's output is always valid JSON that
// decodes to the input with invalid UTF-8 replaced, and equals
// strconv.Quote's wherever that is valid JSON.
func FuzzJSONString(f *testing.F) {
	for _, s := range jsonStringRows {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got := appendJSONString(nil, s)
		var dec string
		if !json.Valid(got) || json.Unmarshal(got, &dec) != nil {
			t.Fatalf("appendJSONString(%q) = %s: not a JSON string", s, got)
		}
		if want := strings.ToValidUTF8(s, string(utf8.RuneError)); dec != want {
			t.Fatalf("appendJSONString(%q) decodes to %q, want %q", s, dec, want)
		}
		if q := strconv.Quote(s); json.Valid([]byte(q)) && string(got) != q {
			t.Fatalf("appendJSONString(%q) = %s, but strconv.Quote's valid JSON is %s", s, got, q)
		}
	})
}

// countingWriter counts the Write calls it receives.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestWriteMetricsJSONMatchesLineRendering is the equivalence owner for
// the one-buffer renderer: its output must equal the line-at-a-time
// string rendering it replaced (kept here as the oracle: strconv.Quote
// names, integral values through FormatInt, the rest through
// FormatFloat 'g') on every value class the rule distinguishes, and
// reach the writer in a single Write.
func TestWriteMetricsJSONMatchesLineRendering(t *testing.T) {
	lineRendering := func(snap []Sample) string {
		var b strings.Builder
		b.WriteString("{\n")
		for i, s := range snap {
			val := strconv.FormatFloat(s.Value, 'g', -1, 64)
			if s.Value == float64(int64(s.Value)) {
				val = strconv.FormatInt(int64(s.Value), 10)
			}
			sep := ",\n"
			if i == len(snap)-1 {
				sep = "\n"
			}
			b.WriteString("  " + strconv.Quote(s.Name) + ": " + val + sep)
		}
		b.WriteString("}\n")
		return b.String()
	}
	snap := []Sample{
		{"integral", 1664000},
		{"integral.negative", -42},
		{"zero", 0},
		{"zero.negative", math.Copysign(0, -1)},
		{"fractional", 0.675},
		{"fractional.tiny", 1e-9},
		{"int64.edge", 1 << 62},
		{"int64.over", 1 << 63},
		{"huge", 1e300},
		{"nan", math.NaN()},
		{"inf.pos", math.Inf(1)},
		{"inf.neg", math.Inf(-1)},
		{"quote\"and\\slash", 1},
		{"control\n\ttab", 2},
		{"non-ascii µs é", 3},
		{"a name long enough to outgrow any per-line size guess: " + strings.Repeat("x", 200), 4},
	}
	for n := 0; n <= len(snap); n++ {
		var w countingWriter
		if err := WriteMetricsJSON(&w, snap[:n]); err != nil {
			t.Fatalf("%d samples: %v", n, err)
		}
		if want := lineRendering(snap[:n]); w.String() != want {
			t.Fatalf("%d samples: output differs from the line rendering\n got %q\nwant %q", n, w.String(), want)
		}
		if w.writes != 1 {
			t.Errorf("%d samples: %d Writes, want 1", n, w.writes)
		}
	}
}
