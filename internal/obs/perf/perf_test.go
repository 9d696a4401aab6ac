package perf

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"roborebound/internal/obs"
)

// fakeClock returns a Clock that replays the given readings in order,
// then keeps returning the last one.
func fakeClock(readings ...int64) Clock {
	i := 0
	return func() int64 {
		if i < len(readings) {
			v := readings[i]
			i++
			return v
		}
		return readings[len(readings)-1]
	}
}

func TestPhaseTimerFakeClockMath(t *testing.T) {
	// Start reads 100, End reads 350 → a 250 ns span.
	pt := NewPhaseTimer(fakeClock(100, 350, 350, 950))
	s := pt.Start()
	pt.End(PhasePhysics, s)
	s = pt.Start()
	pt.End(PhasePhysics, s) // 950-350 = 600 ns

	reports := pt.Report()
	if len(reports) != 1 {
		t.Fatalf("Report returned %d phases, want 1: %+v", len(reports), reports)
	}
	r := reports[0]
	if r.Phase != PhasePhysics || r.Name != "physics" || r.Nested {
		t.Fatalf("wrong phase identity: %+v", r)
	}
	if r.Count != 2 || r.TotalNs != 850 {
		t.Fatalf("count/total = %d/%d, want 2/850", r.Count, r.TotalNs)
	}
	if r.MeanNs != 425 {
		t.Fatalf("mean = %v, want 425", r.MeanNs)
	}
	// 250 ns lands in bucket (128, 256], 600 ns in (512, 1024]: the
	// p50 estimate must sit in the lower bucket, p99 in the upper.
	if r.P50Ns <= 128 || r.P50Ns > 256 {
		t.Errorf("p50 = %v, want in (128, 256]", r.P50Ns)
	}
	if r.P99Ns <= 512 || r.P99Ns > 1024 {
		t.Errorf("p99 = %v, want in (512, 1024]", r.P99Ns)
	}
	if got := pt.PipelineTotalNs(); got != 850 {
		t.Errorf("PipelineTotalNs = %d, want 850", got)
	}
}

func TestPhaseTimerNegativeSpanClamps(t *testing.T) {
	pt := NewPhaseTimer(fakeClock(1000, 400))
	s := pt.Start()
	pt.End(PhaseActorTick, s) // clock ran backwards
	r := pt.Report()
	if len(r) != 1 || r[0].TotalNs != 0 || r[0].Count != 1 {
		t.Fatalf("backwards clock not clamped: %+v", r)
	}
	// A 0 ns span lands in bucket 0 ([0, 1)); interpolation reports at
	// most the bucket's upper bound.
	if r[0].P99Ns > 1 {
		t.Errorf("p99 = %v, want <= 1 for an all-zero distribution", r[0].P99Ns)
	}
}

func TestPhaseTimerNestedExcludedFromPipeline(t *testing.T) {
	pt := NewPhaseTimer(fakeClock(0, 100, 100, 400))
	s := pt.Start()
	pt.End(PhaseRadioDeliver, s) // 100 ns, top-level
	s = pt.Start()
	pt.End(PhaseChainAppend, s) // 300 ns, nested
	if got := pt.PipelineTotalNs(); got != 100 {
		t.Fatalf("PipelineTotalNs = %d, want 100 (nested phases excluded)", got)
	}
	for _, r := range pt.Report() {
		if r.Phase == PhaseChainAppend && !r.Nested {
			t.Errorf("chain-append should report Nested")
		}
		if r.Phase == PhaseRadioDeliver && r.Nested {
			t.Errorf("radio-deliver should report top-level")
		}
	}
}

func TestPhaseTimerNilSafe(t *testing.T) {
	var pt *PhaseTimer
	s := pt.Start()
	if s != 0 {
		t.Errorf("nil Start = %d, want 0", s)
	}
	pt.End(PhasePhysics, s)
	pt.RecordSpans(NewSpanRecorder(0))
	if r := pt.Report(); r != nil {
		t.Errorf("nil Report = %v, want nil", r)
	}
	if n := pt.PipelineTotalNs(); n != 0 {
		t.Errorf("nil PipelineTotalNs = %d, want 0", n)
	}
}

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11},
		{1 << 40, timerBuckets - 1}, {1 << 62, timerBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.ns); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestLogNsBoundsShape(t *testing.T) {
	b := LogNsBounds()
	if len(b) != timerBuckets-1 {
		t.Fatalf("len = %d, want %d", len(b), timerBuckets-1)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not ascending at %d: %v <= %v", i, b[i], b[i-1])
		}
	}
	if b[0] != 1 || b[1] != 2 {
		t.Errorf("bounds start %v, %v; want 1, 2", b[0], b[1])
	}
}

// TestPhaseTimerAllocFree pins Start, End and EndSampled at zero
// allocations, both disabled (nil timer) and enabled — the property the
// bench gate's ≤3% ceiling depends on.
func TestPhaseTimerAllocFree(t *testing.T) {
	var nilTimer *PhaseTimer
	if a := testing.AllocsPerRun(1000, func() {
		s := nilTimer.Start()
		nilTimer.End(PhaseActorTick, s)
	}); a != 0 {
		t.Errorf("disabled Start/End allocates %v per op, want 0", a)
	}
	pt := NewPhaseTimer(Now)
	if a := testing.AllocsPerRun(1000, func() {
		s := pt.Start()
		pt.End(PhaseActorTick, s)
	}); a != 0 {
		t.Errorf("enabled Start/End allocates %v per op, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		s := pt.Start()
		pt.EndSampled(PhaseChainAppend, s, 8)
	}); a != 0 {
		t.Errorf("enabled EndSampled allocates %v per op, want 0", a)
	}
}

func TestEndSampledWeights(t *testing.T) {
	// One measured 200 ns span at weight 8 tallies as 8 spans of 200 ns.
	pt := NewPhaseTimer(fakeClock(100, 300))
	s := pt.Start()
	pt.EndSampled(PhaseChainAppend, s, 8)
	reports := pt.Report()
	if len(reports) != 1 {
		t.Fatalf("Report returned %d phases, want 1: %+v", len(reports), reports)
	}
	r := reports[0]
	if r.Count != 8 || r.TotalNs != 1600 || r.MeanNs != 200 {
		t.Fatalf("count/total/mean = %d/%d/%v, want 8/1600/200", r.Count, r.TotalNs, r.MeanNs)
	}
	// All weighted mass sits in the (128, 256] bucket.
	if r.P99Ns <= 128 || r.P99Ns > 256 {
		t.Errorf("p99 = %v, want in (128, 256]", r.P99Ns)
	}
	// Nested phase: never added to the pipeline total.
	if got := pt.PipelineTotalNs(); got != 0 {
		t.Errorf("PipelineTotalNs = %d, want 0", got)
	}

	// Weight 0 records nothing; nil timer is a no-op; the recorder sees
	// the one measured span, not the scaled estimate.
	pt2 := NewPhaseTimer(fakeClock(10, 20))
	rec := NewSpanRecorder(4)
	pt2.RecordSpans(rec)
	pt2.EndSampled(PhaseChainAppend, pt2.Start(), 0)
	if got := pt2.Report(); len(got) != 0 {
		t.Errorf("weight-0 sample recorded: %+v", got)
	}
	pt2.EndSampled(PhaseChainAppend, pt2.Start(), 4)
	if spans := rec.Spans(); len(spans) != 1 || spans[0].DurNs != 0 {
		t.Errorf("recorder spans = %+v, want one span (last fake reading repeats)", spans)
	}
	var nilTimer *PhaseTimer
	nilTimer.EndSampled(PhaseChainAppend, nilTimer.Start(), 8)
}

func TestSpanRecorder(t *testing.T) {
	pt := NewPhaseTimer(fakeClock(10, 25, 30, 70))
	rec := NewSpanRecorder(0)
	pt.RecordSpans(rec)
	s := pt.Start()
	pt.End(PhasePhysics, s)
	s = pt.Start()
	pt.End(PhaseObservers, s)
	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	want := []Span{
		{Phase: PhasePhysics, StartNs: 10, DurNs: 15},
		{Phase: PhaseObservers, StartNs: 30, DurNs: 40},
	}
	for i := range want {
		if spans[i] != want[i] {
			t.Errorf("span %d = %+v, want %+v", i, spans[i], want[i])
		}
	}
	if rec.Dropped() != 0 {
		t.Errorf("dropped = %d, want 0", rec.Dropped())
	}
}

func TestSpanRecorderCap(t *testing.T) {
	rec := NewSpanRecorder(3)
	for i := 0; i < 5; i++ {
		rec.record(PhasePhysics, int64(i), 1)
	}
	if got := len(rec.Spans()); got != 3 {
		t.Errorf("stored %d spans, want 3", got)
	}
	if rec.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", rec.Dropped())
	}
	var nilRec *SpanRecorder
	if nilRec.Spans() != nil || nilRec.Dropped() != 0 {
		t.Errorf("nil recorder accessors not zero-valued")
	}
}

func TestSweepMeterMath(t *testing.T) {
	var cur int64
	m := NewSweepMeter(func() int64 { return cur })
	m.Begin(2)
	m.CellDone(10)
	m.CellDone(30)
	cur = 25
	m.End()
	r := m.Report()
	if r.Cells != 2 || r.Workers != 2 {
		t.Fatalf("cells/workers = %d/%d, want 2/2", r.Cells, r.Workers)
	}
	if r.WallNs != 25 || r.BusyNs != 40 {
		t.Fatalf("wall/busy = %d/%d, want 25/40", r.WallNs, r.BusyNs)
	}
	if want := 40.0 / 50.0; r.Utilization != want {
		t.Errorf("utilization = %v, want %v", r.Utilization, want)
	}
	if r.MeanNs != 20 {
		t.Errorf("mean = %v, want 20", r.MeanNs)
	}
	if r.P50Ns <= 0 || r.P99Ns < r.P50Ns {
		t.Errorf("quantiles not sane: p50=%v p99=%v", r.P50Ns, r.P99Ns)
	}

	// A second window accumulates wall time; utilization is clamped at 1
	// even when busy exceeds capacity (possible with accumulated windows).
	m.Begin(1)
	m.CellDone(1000)
	cur = 30
	m.End()
	r = m.Report()
	if r.WallNs != 30 {
		t.Errorf("accumulated wall = %d, want 30", r.WallNs)
	}
	if r.Utilization != 1 {
		t.Errorf("utilization = %v, want clamped to 1", r.Utilization)
	}
}

func TestSweepMeterOpenWindow(t *testing.T) {
	var cur int64
	m := NewSweepMeter(func() int64 { return cur })
	m.Begin(1)
	m.CellDone(5)
	cur = 10
	r := m.Report() // window still open: counts up to the current clock
	if r.WallNs != 10 {
		t.Errorf("open-window wall = %d, want 10", r.WallNs)
	}
	cur = 20
	m.End()
	if r := m.Report(); r.WallNs != 20 {
		t.Errorf("closed wall = %d, want 20", r.WallNs)
	}
}

func TestSweepMeterNilSafe(t *testing.T) {
	var m *SweepMeter
	if m.Now() <= 0 {
		t.Errorf("nil meter Now should read the package clock")
	}
	m.Begin(4)
	m.CellDone(100)
	m.End()
	if r := m.Report(); r != (SweepReport{}) {
		t.Errorf("nil Report = %+v, want zero", r)
	}
}

func TestRuntimeSampler(t *testing.T) {
	s := NewRuntimeSampler(3)
	if s.Every() != 3 {
		t.Fatalf("Every = %d, want 3", s.Every())
	}
	if def := NewRuntimeSampler(0); def.Every() != 8 {
		t.Fatalf("default Every = %d, want 8", def.Every())
	}
	// Very early in a process (e.g. when shuffling runs this test
	// first) the heap-objects metric can read 0 because the runtime has
	// not flushed its first memory-stats aggregate; a GC forces it.
	runtime.GC()
	s.Sample()
	s.Sample()
	r := s.Report()
	if r.Samples != 2 {
		t.Errorf("samples = %d, want 2", r.Samples)
	}
	if r.HeapLiveBytes == 0 || r.HeapLiveMax < r.HeapLiveBytes {
		t.Errorf("heap accounting not sane: %+v", r)
	}
	if r.Goroutines < 1 || r.GoroutinesMax < r.Goroutines {
		t.Errorf("goroutine accounting not sane: %+v", r)
	}

	var nilS *RuntimeSampler
	nilS.Sample()
	if nilS.Every() != 0 || nilS.Report() != (RuntimeReport{}) {
		t.Errorf("nil sampler accessors not zero-valued")
	}
}

func TestWriteMergedTrace(t *testing.T) {
	events := []obs.Event{
		{Tick: 1, Robot: 1, Kind: obs.EvAuditRoundStart},
		{Tick: 2, Robot: 1, Kind: obs.EvTokenGranted},
	}
	rec := NewSpanRecorder(0)
	rec.record(PhaseRadioDeliver, 1000, 500)
	rec.record(PhasePhysics, 2000, 250)

	var buf bytes.Buffer
	if err := WriteMergedTrace(&buf, events, rec); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("merged trace is not valid JSON:\n%s", buf.String())
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var sawWallProc, sawTickEvent, sawSlice bool
	for _, e := range doc.TraceEvents {
		if e["name"] == "process_name" {
			if args, ok := e["args"].(map[string]any); ok && args["name"] == "wall-clock pipeline" {
				sawWallProc = true
			}
		}
		if pid, ok := e["pid"].(float64); ok && pid == 1 {
			sawTickEvent = true
		}
		if e["ph"] == "X" && e["name"] == "radio-deliver" {
			sawSlice = true
			if e["dur"].(float64) != 0.5 { // 500 ns = 0.5 µs
				t.Errorf("slice dur = %v µs, want 0.5", e["dur"])
			}
		}
	}
	if !sawWallProc || !sawTickEvent || !sawSlice {
		t.Errorf("merged trace missing tracks: wallProc=%v tickEvent=%v slice=%v",
			sawWallProc, sawTickEvent, sawSlice)
	}

	// Nil recorder degrades to the tick-domain track plus the empty
	// wall-clock process — still valid JSON.
	buf.Reset()
	if err := WriteMergedTrace(&buf, events, nil); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("nil-recorder merged trace invalid JSON:\n%s", buf.String())
	}
}

func TestWritePhaseJSON(t *testing.T) {
	pt := NewPhaseTimer(fakeClock(0, 100, 200, 450))
	s := pt.Start()
	pt.End(PhaseRadioDeliver, s)
	s = pt.Start()
	pt.End(PhaseChainAppend, s)

	rt := NewRuntimeSampler(1)
	rt.Sample()

	var buf bytes.Buffer
	if err := WritePhaseJSON(&buf, pt, rt); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("phase report is not valid JSON:\n%s", buf.String())
	}
	var doc struct {
		PipelineTotalNs int64 `json:"pipeline_total_ns"`
		Phases          []struct {
			Phase   string `json:"phase"`
			Nested  bool   `json:"nested"`
			Count   uint64 `json:"count"`
			TotalNs uint64 `json:"total_ns"`
		} `json:"phases"`
		Runtime *struct {
			Samples uint64 `json:"samples"`
		} `json:"runtime"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.PipelineTotalNs != 100 {
		t.Errorf("pipeline_total_ns = %d, want 100", doc.PipelineTotalNs)
	}
	if len(doc.Phases) != 2 || doc.Phases[0].Phase != "radio-deliver" || doc.Phases[1].Phase != "chain-append" {
		t.Errorf("phases = %+v", doc.Phases)
	}
	if !doc.Phases[1].Nested || doc.Phases[1].TotalNs != 250 {
		t.Errorf("nested chain-append = %+v", doc.Phases[1])
	}
	if doc.Runtime == nil || doc.Runtime.Samples != 1 {
		t.Errorf("runtime block = %+v", doc.Runtime)
	}

	// Without a sampler the runtime block is absent entirely.
	buf.Reset()
	if err := WritePhaseJSON(&buf, pt, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "\"runtime\"") {
		t.Errorf("nil-sampler report still has a runtime block:\n%s", buf.String())
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseRadioDeliver.String() != "radio-deliver" || PhaseChainAppend.String() != "chain-append" {
		t.Errorf("phase names wrong: %q %q", PhaseRadioDeliver, PhaseChainAppend)
	}
	if NumPhases.String() != "unknown" {
		t.Errorf("out-of-range String = %q, want unknown", NumPhases.String())
	}
}
