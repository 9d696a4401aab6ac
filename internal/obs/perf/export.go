package perf

import (
	"fmt"
	"io"
	"strings"

	"roborebound/internal/obs"
)

// WallClockPID is the synthetic Chrome-trace process ID carrying the
// wall-clock pipeline track in a merged export. Robot processes use
// their uint16 IDs, so any value above 65535 cannot collide.
const WallClockPID = 1 << 20

// WriteMergedTrace writes one Chrome trace-event document combining
// the tick-domain robot tracks (identical to obs.WriteChromeTrace)
// with a wall-clock pipeline track built from the recorder's spans:
// one synthetic process, one thread per phase, complete ("X") slices.
//
// The two tracks share a µs axis but not a timebase: tick-domain
// timestamps are simulated time from tick 0, wall-clock
// timestamps are measured time from the timer's clock origin. At the
// chaos plane's real-time tick mapping the tracks land on comparable
// scales; either way Perfetto renders them side by side, which is the
// point — where simulated activity clusters versus where hardware
// time goes. A nil recorder (or one with no spans) degrades to the
// tick-domain document plus the empty wall-clock process. Numbers go
// through obs.JSONFloat, which has no JSON form for NaN or Inf; none
// reaches it, since span math is integer nanoseconds and tick
// timestamps are finite.
func WriteMergedTrace(w io.Writer, events []obs.Event, rec *SpanRecorder) error {
	var b strings.Builder
	b.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	emit := func(s string) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString("\n")
		b.WriteString(s)
	}
	for _, line := range obs.ChromeTraceLines(events) {
		emit(line)
	}

	emit(fmt.Sprintf(`{"ph":"M","name":"process_name","pid":%d,"tid":0,"args":{"name":"wall-clock pipeline"}}`, WallClockPID))
	spans := rec.Spans()
	var seen [NumPhases]bool
	for _, s := range spans {
		if s.Phase < NumPhases {
			seen[s.Phase] = true
		}
	}
	for p := Phase(0); p < NumPhases; p++ {
		if seen[p] {
			emit(fmt.Sprintf(`{"ph":"M","name":"thread_name","pid":%d,"tid":%d,"args":{"name":%q}}`,
				WallClockPID, int(p)+1, p.String()))
		}
	}
	for _, s := range spans {
		if s.Phase >= NumPhases {
			continue
		}
		dur := s.DurNs
		if dur < 0 {
			dur = 0
		}
		emit(fmt.Sprintf(`{"ph":"X","name":%q,"pid":%d,"tid":%d,"ts":%s,"dur":%s}`,
			s.Phase.String(), WallClockPID, int(s.Phase)+1,
			obs.JSONFloat(float64(s.StartNs)/1e3), obs.JSONFloat(float64(dur)/1e3)))
	}

	b.WriteString("\n]}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// WritePhaseJSON writes the phase-breakdown report (plus runtime
// telemetry, when a sampler is supplied) as a JSON document with a
// fixed field order. Phase entries follow Report's pipeline order.
func WritePhaseJSON(w io.Writer, t *PhaseTimer, rt *RuntimeSampler) error {
	var b strings.Builder
	b.WriteString("{\n")
	fmt.Fprintf(&b, "  \"pipeline_total_ns\": %d,\n", t.PipelineTotalNs())
	b.WriteString("  \"phases\": [")
	for i, p := range t.Report() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "\n    {\"phase\": %q, \"nested\": %v, \"count\": %d, \"total_ns\": %d, "+
			"\"mean_ns\": %s, \"p50_ns\": %s, \"p95_ns\": %s, \"p99_ns\": %s}",
			p.Name, p.Nested, p.Count, p.TotalNs,
			obs.JSONFloat(p.MeanNs), obs.JSONFloat(p.P50Ns), obs.JSONFloat(p.P95Ns), obs.JSONFloat(p.P99Ns))
	}
	b.WriteString("\n  ]")
	if rt != nil {
		r := rt.Report()
		fmt.Fprintf(&b, ",\n  \"runtime\": {\"samples\": %d, \"heap_live_bytes\": %d, \"heap_live_max_bytes\": %d, "+
			"\"goroutines\": %d, \"goroutines_max\": %d, \"gc_cycles\": %d, "+
			"\"gc_pause_p50_ns\": %s, \"gc_pause_p95_ns\": %s, \"gc_pause_p99_ns\": %s}",
			r.Samples, r.HeapLiveBytes, r.HeapLiveMax,
			r.Goroutines, r.GoroutinesMax, r.GCCycles,
			obs.JSONFloat(r.GCPauseP50Ns), obs.JSONFloat(r.GCPauseP95Ns), obs.JSONFloat(r.GCPauseP99Ns))
	}
	b.WriteString("\n}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
