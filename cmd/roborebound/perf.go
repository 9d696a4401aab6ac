package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	rr "roborebound"
	"roborebound/internal/obs"
	"roborebound/internal/obs/perf"
)

// The perf subcommand: run one chaos cell twice — first untimed, then
// with the full wall-clock performance plane attached (phase timer,
// runtime/metrics sampler, and span recorder when -perfetto) — prove
// the two runs byte-identical, and print the phase-attributed timing
// table plus runtime telemetry. The built-in differential makes every
// perf report double as an observation-only check: if instrumenting
// the run changed any result byte, the command fails.

var perfJSONOut = flag.String("json", "",
	"write the perf phase report (and runtime telemetry) as JSON to this file (perf subcommand)")

// perfFailed mirrors chaosFailed for the perf subcommand.
var perfFailed bool

func perfCmd() {
	cfg := snapshotCellConfig() // shares -controller/-profile/-n/-duration/-seed
	if *quick && cfg.DurationSec == 60 {
		cfg.DurationSec = 20 // shrink only the default; explicit -duration wins
	}

	// Collectors are attached to both runs only when the merged trace
	// is requested: the NDJSON byte comparison then extends the
	// differential to the full event stream.
	var baseCol, perfCol *obs.Collector
	if *perfettoOut != "" {
		baseCol = obs.NewCollector()
		perfCol = obs.NewCollector()
	}

	baseCfg := cfg
	if baseCol != nil {
		baseCfg.Trace = baseCol
	}
	baseline := rr.RunChaos(baseCfg)

	timer := perf.NewPhaseTimer(nil)
	var rec *perf.SpanRecorder
	if *perfettoOut != "" {
		rec = perf.NewSpanRecorder(0)
		timer.RecordSpans(rec)
	}
	rt := perf.NewRuntimeSampler(0)
	perfCfg := cfg
	perfCfg.Perf = timer
	perfCfg.PerfRuntime = rt
	if perfCol != nil {
		perfCfg.Trace = perfCol
	}
	timed := rr.RunChaos(perfCfg)

	fmt.Fprintf(out, "Perf — %s\n", cfg.Label())

	// Observation-only differential: the timed run must be
	// byte-identical to the untimed one.
	switch {
	case baseline.Metrics.Fingerprint != timed.Metrics.Fingerprint:
		fmt.Fprintf(out, "  differential: FAIL — timed fingerprint differs from the untimed run\n    %s\n    %s\n",
			timed.Metrics.Fingerprint, baseline.Metrics.Fingerprint)
		perfFailed = true
	case !obs.SamplesEqual(baseline.MetricsSnapshot, timed.MetricsSnapshot):
		fmt.Fprintf(out, "  differential: FAIL — metrics snapshot differs with the perf plane attached\n")
		perfFailed = true
	case baseCol != nil && !sameNDJSON(baseCol, perfCol):
		fmt.Fprintf(out, "  differential: FAIL — NDJSON trace differs with the perf plane attached\n")
		perfFailed = true
	default:
		fmt.Fprintf(out, "  differential: ok — timed run byte-identical to untimed (fingerprint %s)\n",
			timed.Metrics.Fingerprint)
	}

	reports := timer.Report()
	if len(reports) == 0 {
		fmt.Fprintf(out, "  no phases recorded\n")
		perfFailed = true
		return
	}
	pipeline := timer.PipelineTotalNs()
	fmt.Fprintf(out, "\n  %-18s %10s %12s %7s %10s %10s %10s\n",
		"phase", "count", "total ms", "pipe%", "p50 µs", "p95 µs", "p99 µs")
	for _, r := range reports {
		pct := "-"
		if !r.Nested && pipeline > 0 {
			pct = fmt.Sprintf("%.1f%%", 100*float64(r.TotalNs)/float64(pipeline))
		}
		name := r.Name
		if r.Nested {
			name = "  " + name
		}
		fmt.Fprintf(out, "  %-18s %10d %12.2f %7s %10.1f %10.1f %10.1f\n",
			name, r.Count, float64(r.TotalNs)/1e6, pct,
			r.P50Ns/1e3, r.P95Ns/1e3, r.P99Ns/1e3)
	}
	fmt.Fprintf(out, "  pipeline total %.2f ms over the whole run\n", float64(pipeline)/1e6)

	rtr := rt.Report()
	if rtr.Samples > 0 {
		fmt.Fprintf(out, "\n  runtime: %d samples  heap %.1f MiB (max %.1f)  goroutines %d (max %d)  GC cycles %d\n",
			rtr.Samples, float64(rtr.HeapLiveBytes)/(1<<20), float64(rtr.HeapLiveMax)/(1<<20),
			rtr.Goroutines, rtr.GoroutinesMax, rtr.GCCycles)
		if rtr.GCPauseSamples > 0 {
			fmt.Fprintf(out, "  GC pause p50=%.1fµs p95=%.1fµs p99=%.1fµs\n",
				rtr.GCPauseP50Ns/1e3, rtr.GCPauseP95Ns/1e3, rtr.GCPauseP99Ns/1e3)
		}
	}

	if *perfettoOut != "" {
		writeObsFile(*perfettoOut, "merged Perfetto trace", func(w io.Writer) error {
			return perf.WriteMergedTrace(w, perfCol.Events(),
				obs.TickMapping{TicksPerSecond: rr.TicksPerSecond}, rec)
		})
		if rec.Dropped() > 0 {
			fmt.Fprintf(os.Stderr, "  perf: span recorder dropped %d spans (limit %d)\n",
				rec.Dropped(), perf.DefaultSpanLimit)
		}
	}
	if *perfJSONOut != "" {
		writeObsFile(*perfJSONOut, "perf phase report JSON", func(w io.Writer) error {
			return perf.WritePhaseJSON(w, timer, rt)
		})
	}
}

// sameNDJSON compares two collectors' serialized event streams byte
// for byte.
func sameNDJSON(a, b *obs.Collector) bool {
	var ab, bb bytes.Buffer
	if err := obs.WriteNDJSON(&ab, a.Events()); err != nil {
		return false
	}
	if err := obs.WriteNDJSON(&bb, b.Events()); err != nil {
		return false
	}
	return bytes.Equal(ab.Bytes(), bb.Bytes())
}
