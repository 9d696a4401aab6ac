package main

import "fmt"

// metricSpec declares one metric. BENCHMARK.json at the repository
// root lists the same names, units, directions and bounds; the
// package test holds the two equal.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" | "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them with tracing off; Bound is the share of
// the parent's median by which a later change may worsen it. The
// bounds are three times the widest quartile spread seen over ten
// seeds on the two-core shared box this was sized on (README.md),
// capped at the contract's 0.25: host-time metrics wander 5-11 %
// there between identical runs, allocation counts under 1 %.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"robot_ticks_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"cpu_us_per_robot_tick", "us", "lower", 0.25},
	{"allocs_per_robot_tick", "count", "lower", 0.03},
	{"alloc_bytes_per_robot_tick", "B", "lower", 0.05},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced run, prefixed
// with the module they measure. A workload that does not exercise a
// layer reports 0 for it (README.md lists which).
var perLayer = []metricSpec{
	// whole-run oracle outcomes
	{"ops.error_share", "ratio", "lower", 0},
	{"core.bti_window_s", "s", "lower", 0},

	{"serve.jobs_per_s", "1/s", "higher", 0},
	{"serve.slo_rate", "1/s", "higher", 0},
	{"serve.allocs_per_job", "count", "lower", 0},
	{"serve.lat_p50_ms.closed", "ms", "lower", 0},
	{"serve.lat_p99_ms.closed", "ms", "lower", 0},
	{"serve.lat_p50_ms.r100", "ms", "lower", 0},
	{"serve.lat_p99_ms.r100", "ms", "lower", 0},
	{"serve.lat_p50_ms.r200", "ms", "lower", 0},
	{"serve.lat_p99_ms.r200", "ms", "lower", 0},
	{"serve.lat_p50_ms.r400", "ms", "lower", 0},
	{"serve.lat_p99_ms.r400", "ms", "lower", 0},
	{"serve.queue_p50_ms", "ms", "lower", 0},
	{"serve.queue_p99_ms", "ms", "lower", 0},
	{"serve.run_p50_ms", "ms", "lower", 0},
	{"serve.run_p99_ms", "ms", "lower", 0},
	{"serve.submit_p50_ms", "ms", "lower", 0},
	{"serve.wait_p50_ms", "ms", "lower", 0},
	{"serve.fetch_p50_ms", "ms", "lower", 0},
	{"serve.direct_job_ms", "ms", "lower", 0},
	{"serve.overhead_ms", "ms", "lower", 0},
	{"serve.decode_us", "us", "lower", 0},
	{"serve.gen_late_p99_ms", "ms", "lower", 0},
	{"serve.jobs_attempted", "count", "higher", 0},
	{"serve.jobs_failed", "count", "lower", 0},
	{"serve.jobs_refused", "count", "lower", 0},

	{"runner.dispatch_us", "us", "lower", 0},
	{"runner.cell_p50_ms", "ms", "lower", 0},
	{"runner.cell_p99_ms", "ms", "lower", 0},
	{"runner.utilisation", "ratio", "higher", 0},
	{"runner.speedup_2w", "ratio", "higher", 0},

	{"sim.build_ms", "ms", "lower", 0},
	{"sim.world_step_us", "us", "lower", 0},
	{"sim.tick_p50_ms", "ms", "lower", 0},
	{"sim.tick_p95_ms", "ms", "lower", 0},
	{"sim.tick_max_ms", "ms", "lower", 0},
	{"sim.phase.radio_deliver_share", "ratio", "lower", 0},
	{"sim.phase.actor_tick_share", "ratio", "lower", 0},
	{"sim.phase.physics_share", "ratio", "lower", 0},
	{"sim.phase.observers_share", "ratio", "lower", 0},
	{"sim.trace_overhead_pct", "%", "lower", 0},

	{"radio.deliver_round_us", "us", "lower", 0},
	{"radio.deliveries_per_round", "count", "lower", 0},
	{"radio.rx_frames_per_robot_tick", "count", "lower", 0},
	{"radio.dropped_share", "ratio", "lower", 0},
	{"radio.tx_bytes_per_robot_s", "B/s", "lower", 0},
	{"radio.audit_bytes_share", "ratio", "lower", 0},

	{"spatial.build_us", "us", "lower", 0},
	{"spatial.within_ns", "ns", "lower", 0},

	{"trusted.recv_us", "us", "lower", 0},
	{"trusted.send_us", "us", "lower", 0},
	{"trusted.chain_append_ns", "ns", "lower", 0},

	{"cryptolite.lightmac_27B_ns", "ns", "lower", 0},
	{"cryptolite.lightmac_2KB_ns", "ns", "lower", 0},
	{"cryptolite.sha1_64B_ns", "ns", "lower", 0},
	{"cryptolite.sha1_2KB_ns", "ns", "lower", 0},

	{"core.audit_miss_us", "us", "lower", 0},
	{"core.audit_hit_us", "us", "lower", 0},
	{"core.loopback_tick_us", "us", "lower", 0},
	{"core.audit_hit_ratio", "ratio", "higher", 0},
	{"core.audit_miss_ms_total", "ms", "lower", 0},
	{"core.audit_hit_ms_total", "ms", "lower", 0},
	{"core.chain_append_calls", "count", "lower", 0},
	{"core.audits_served_per_robot_s", "1/s", "lower", 0},
	{"core.rounds_covered", "count", "higher", 0},
	{"core.rounds_abandoned", "count", "lower", 0},
	{"core.tokens_installed", "count", "higher", 0},

	{"replay.verify_us", "us", "lower", 0},
	{"replay.segment_entries", "count", "lower", 0},

	{"wire.frame_codec_ns", "ns", "lower", 0},

	{"snapshot.capture_ms", "ms", "lower", 0},
	{"snapshot.bytes", "B", "lower", 0},
	{"snapshot.resume_ms", "ms", "lower", 0},

	{"runtime.gc_cycles_per_cell", "count", "lower", 0},
	{"runtime.gc_pause_p99_us", "us", "lower", 0},
	{"runtime.gc_cpu_share", "ratio", "lower", 0},
	{"runtime.heap_live_mb", "MiB", "lower", 0},
	{"runtime.heap_peak_mb", "MiB", "lower", 0},
}

// metric is one reported value, in the driver's result shape.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name during a run.
type metricSet map[string]float64

func (m metricSet) set(name string, v float64) { m[name] = v }

// report renders the values of specs in the result shape. An
// end-to-end metric that was never set is a harness bug; a per-layer
// metric the workload does not exercise reads 0.
func (m metricSet) report(specs []metricSpec, required bool) (map[string]metric, error) {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		v, ok := m[s.Name]
		if !ok && required {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		out[s.Name] = metric{Value: v, Unit: s.Unit}
	}
	return out, nil
}
