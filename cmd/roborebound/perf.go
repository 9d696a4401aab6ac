package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	rr "roborebound"
	"roborebound/internal/cryptolite"
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

func perfCmd() int {
	cfg := cellConfig("perf")

	// Collectors are attached to both runs only when the merged trace
	// is requested: the NDJSON byte comparison then extends the
	// differential to the full event stream.
	var baseCol, perfCol *obs.Collector
	if *perfettoOut != "" {
		baseCol = obs.NewCollector()
		perfCol = obs.NewCollector()
	}

	// SHA-1 calibration rounds before, between and after the runs: their
	// spread shows how far the host drifted while the cell ran.
	calib := sha1CompressionNs(nil)
	baseCfg := cfg
	if baseCol != nil {
		baseCfg.ChaosRun = rr.ChaosRun{Trace: baseCol}
	}
	baseline := rr.RunChaos(baseCfg)
	calib = sha1CompressionNs(calib)

	timer := perf.NewPhaseTimer(nil)
	var rec *perf.SpanRecorder
	if *perfettoOut != "" {
		rec = perf.NewSpanRecorder(0)
		timer.RecordSpans(rec)
	}
	rt := perf.NewRuntimeSampler(0)
	perfCfg := cfg
	perfCfg.ChaosRun = rr.ChaosRun{Perf: timer, PerfRuntime: rt}
	if perfCol != nil {
		perfCfg.Trace = perfCol
	}
	timed := rr.RunChaos(perfCfg)
	calib = sha1CompressionNs(calib)

	fmt.Fprintf(out, "Perf — %s\n", cfg.Label())

	// Observation-only differential: the timed run must be
	// byte-identical to the untimed one.
	exit := 0
	switch {
	case baseline.Metrics.Fingerprint != timed.Metrics.Fingerprint:
		fmt.Fprintf(out, "  differential: FAIL — timed fingerprint differs from the untimed run\n    %s\n    %s\n",
			timed.Metrics.Fingerprint, baseline.Metrics.Fingerprint)
		exit = 1
	case !obs.SamplesEqual(baseline.MetricsSnapshot, timed.MetricsSnapshot):
		fmt.Fprintf(out, "  differential: FAIL — metrics snapshot differs with the perf plane attached\n")
		exit = 1
	case baseCol != nil && !sameNDJSON(baseCol, perfCol):
		fmt.Fprintf(out, "  differential: FAIL — NDJSON trace differs with the perf plane attached\n")
		exit = 1
	default:
		fmt.Fprintf(out, "  differential: ok — timed run byte-identical to untimed (fingerprint %s)\n",
			timed.Metrics.Fingerprint)
	}

	reports := timer.Report()
	if len(reports) == 0 {
		fmt.Fprintf(out, "  no phases recorded\n")
		return 1
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
	printSHA1Cost(timed, pipeline, calib)

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
		if !writeObsFile(*perfettoOut, "merged Perfetto trace", func(w io.Writer) error {
			return perf.WriteMergedTrace(w, perfCol.Events(),
				obs.TickMapping{TicksPerSecond: rr.TicksPerSecond}, rec)
		}) {
			return 1
		}
		if rec.Dropped() > 0 {
			fmt.Fprintf(os.Stderr, "  perf: span recorder dropped %d spans (limit %d)\n",
				rec.Dropped(), perf.DefaultSpanLimit)
		}
	}
	if *perfJSONOut != "" && !writeObsFile(*perfJSONOut, "perf phase report JSON", func(w io.Writer) error {
		return perf.WritePhaseJSON(w, timer, rt)
	}) {
		return 1
	}
	return exit
}

// printSHA1Cost prints the run's SHA-1 work: compressions per
// robot-tick, counted where the bytes are hashed, times the median ns
// one compression took in the calibration rounds on the path this
// process runs, with the rounds' min–max beside it.
func printSHA1Cost(res rr.ChaosResult, pipelineNs uint64, calib []float64) {
	robotTicks := float64(res.Config.N) * float64(res.Config.Ticks())
	slices.Sort(calib)
	ns := calib[len(calib)/2]
	path := "crypto/sha1"
	if cryptolite.SHA1UsesSHANI() {
		path = "the SHA-NI kernel"
	}
	totalNs := float64(res.SHA1Compressions) * ns
	fmt.Fprintf(out, "\n  SHA-1: %d compressions, %.1f per robot-tick, x %.1f ns (%d rounds %.1f–%.1f) on %s = %.2f µs per robot-tick",
		res.SHA1Compressions, float64(res.SHA1Compressions)/robotTicks, ns, len(calib), calib[0], calib[len(calib)-1],
		path, totalNs/robotTicks/1e3)
	if pipelineNs > 0 {
		fmt.Fprintf(out, ", %.1f%% of the pipeline", 100*totalNs/float64(pipelineNs))
	}
	fmt.Fprintln(out)
}

// sha1CompressionNs times SHA1Stream the way a trusted chain drives
// it — a flush of ten entries, each a 6-byte length prefix and header
// then a 34-byte payload, behind the 20-byte top: 420 bytes, seven
// compressions, like a dense cell's mean flush — and appends three
// rounds' ns per compression to ns.
func sha1CompressionNs(ns []float64) []float64 {
	const rounds, reps, entries = 3, 3000, 10
	var top [20]byte
	var head [6]byte
	var payload [34]byte
	flushLen := uint64(len(top) + entries*(len(head)+len(payload)))
	blocks := float64(reps * cryptolite.SHA1Blocks(flushLen))
	var s cryptolite.SHA1Stream
	for range rounds {
		start := perf.Now()
		for range reps {
			s.Reset()
			s.Write(top[:])
			for range entries {
				s.Write(head[:])
				s.Write(payload[:])
			}
			s.Sum()
		}
		ns = append(ns, float64(perf.Now()-start)/blocks)
	}
	return ns
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
