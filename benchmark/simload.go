package main

import (
	"fmt"
	"strings"

	rr "roborebound"
	"roborebound/internal/obs"
	"roborebound/internal/obs/perf"
)

// tickStamper is a traced cell's Interrupt hook: it stamps the perf
// clock at each tick boundary and never interrupts, so the cell stays
// byte-identical to an untraced one.
type tickStamper struct{ at []int64 }

func (s *tickStamper) hook() bool {
	s.at = append(s.at, perf.Now())
	return false
}

// layerTally accumulates what the traced cells of one run say about
// the layers: tick times from the stamps, phase totals from the
// facade's PhaseTimer, runtime telemetry from its RuntimeSampler, and
// the deterministic counters of the last traced operation.
type layerTally struct {
	ops        int // traced operations (cells, or passes) behind the phase totals
	tickNs     []float64
	phaseCount [perf.NumPhases]uint64
	phaseNs    [perf.NumPhases]uint64
	heapLive   uint64
	heapPeak   uint64
	gcPauseP99 float64
	counts     map[string]float64 // "radio.rx_frames" etc., summed over robots and cells
	robotTicks float64            // simulated work behind counts
	btiS       float64
}

func (t *layerTally) addTicks(stamps []int64) {
	for i := 1; i < len(stamps); i++ {
		t.tickNs = append(t.tickNs, float64(stamps[i]-stamps[i-1]))
	}
}

func (t *layerTally) addPhases(timer *perf.PhaseTimer) {
	for _, p := range timer.Report() {
		t.phaseCount[p.Phase] += p.Count
		t.phaseNs[p.Phase] += p.TotalNs
	}
}

func (t *layerTally) addRuntime(rt perf.RuntimeReport) {
	if rt.Samples == 0 {
		return
	}
	t.heapLive = rt.HeapLiveBytes
	t.heapPeak = max(t.heapPeak, rt.HeapLiveMax)
	t.gcPauseP99 = rt.GCPauseP99Ns
}

// resetCounts starts the counters of a new traced operation; they
// repeat exactly, so only the last operation's are kept.
func (t *layerTally) resetCounts() {
	t.counts = map[string]float64{}
	t.robotTicks = 0
	t.btiS = 0
}

// addCounts folds one cell's registry snapshot into the counters:
// "core.robot.7.audits_served" adds to "core.audits_served".
func (t *layerTally) addCounts(res *rr.ChaosResult) {
	for _, s := range res.MetricsSnapshot {
		addCount(t.counts, s)
	}
	t.robotTicks += robotTicks(res.Config)
	t.btiS = max(t.btiS, btiWindowS(res))
}

func addCount(counts map[string]float64, s obs.Sample) {
	parts := strings.SplitN(s.Name, ".", 4)
	if len(parts) == 4 && parts[1] == "robot" {
		counts[parts[0]+"."+parts[3]] += s.Value
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// report turns the tally into the sim., radio., core. and runtime.
// metrics of the traced run.
func (t *layerTally) report(m metricSet) {
	ticks := sortedCopy(t.tickNs)
	if len(ticks) > 0 {
		m.set("sim.tick_p50_ms", ms(quantile(ticks, 0.5)))
		m.set("sim.tick_p95_ms", ms(quantile(ticks, 0.95)))
		m.set("sim.tick_max_ms", ms(ticks[len(ticks)-1]))
	}

	var pipeline float64
	for p := perf.Phase(0); p < perf.NumPhases; p++ {
		if !p.Nested() {
			pipeline += float64(t.phaseNs[p])
		}
	}
	m.set("sim.phase.radio_deliver_share", ratio(float64(t.phaseNs[perf.PhaseRadioDeliver]), pipeline))
	m.set("sim.phase.actor_tick_share", ratio(float64(t.phaseNs[perf.PhaseActorTick]), pipeline))
	m.set("sim.phase.physics_share", ratio(float64(t.phaseNs[perf.PhasePhysics]), pipeline))
	m.set("sim.phase.observers_share", ratio(float64(t.phaseNs[perf.PhaseObservers]), pipeline))

	hits, misses := float64(t.phaseCount[perf.PhaseAuditCacheHit]), float64(t.phaseCount[perf.PhaseAuditCacheMiss])
	m.set("core.audit_hit_ratio", ratio(hits, hits+misses))
	// Totals are per traced operation, so they do not grow with the
	// number of cells the window happened to fit.
	perOp := func(total uint64) float64 { return ratio(float64(total), float64(t.ops)) }
	m.set("core.audit_miss_ms_total", ms(perOp(t.phaseNs[perf.PhaseAuditCacheMiss])))
	m.set("core.audit_hit_ms_total", ms(perOp(t.phaseNs[perf.PhaseAuditCacheHit])))
	m.set("core.chain_append_calls", perOp(t.phaseCount[perf.PhaseChainAppend]))

	c := t.counts
	robotSeconds := t.robotTicks / ticksPerSecond
	txBytes := c["radio.tx_app_bytes"] + c["radio.tx_audit_bytes"]
	m.set("radio.rx_frames_per_robot_tick", ratio(c["radio.rx_frames"], t.robotTicks))
	m.set("radio.dropped_share", ratio(c["radio.dropped_frames"], c["radio.rx_frames"]+c["radio.dropped_frames"]))
	m.set("radio.tx_bytes_per_robot_s", ratio(txBytes, robotSeconds))
	m.set("radio.audit_bytes_share", ratio(c["radio.tx_audit_bytes"], txBytes))
	m.set("core.audits_served_per_robot_s", ratio(c["core.audits_served"], robotSeconds))
	m.set("core.rounds_covered", c["core.rounds_covered"])
	m.set("core.rounds_abandoned", c["core.rounds_abandoned"])
	m.set("core.tokens_installed", c["core.tokens_installed"])
	m.set("core.bti_window_s", t.btiS)

	const mib = 1 << 20
	m.set("runtime.gc_pause_p99_us", us(t.gcPauseP99))
	m.set("runtime.heap_live_mb", float64(t.heapLive)/mib)
	m.set("runtime.heap_peak_mb", float64(t.heapPeak)/mib)
}

// tracedCell runs one cell with the facade's observation-only hooks
// attached and records its spans: cell -> {build, run, tail}. The
// Interrupt hook is polled before every tick but not after the last,
// so "build" ends at the first poll, "run" spans the polls, and "tail"
// is the last tick plus the result summary.
func tracedCell(r *run, parent int, group string, cfg rr.ChaosConfig, tally *layerTally) (rr.ChaosResult, int64) {
	timer := perf.NewPhaseTimer(nil)
	sampler := perf.NewRuntimeSampler(0)
	st := &tickStamper{}
	cfg.Perf, cfg.PerfRuntime, cfg.Interrupt = timer, sampler, st.hook

	t0 := perf.Now()
	res := rr.RunChaos(cfg)
	t1 := perf.Now()

	cell := r.spans.add(parent, group, "cell", t0, t1)
	if n := len(st.at); n > 0 {
		r.spans.add(cell, group, "build", t0, st.at[0])
		r.spans.add(cell, group, "run", st.at[0], st.at[n-1])
		r.spans.add(cell, group, "tail", st.at[n-1], t1)
	}
	tally.ops++
	tally.addTicks(st.at)
	tally.addPhases(timer)
	tally.addRuntime(sampler.Report())
	return res, t1 - t0
}

// snapshotProbe checkpoints cfg's cell at its midpoint through the
// Interrupt seam, resumes it from the bytes, and checks the resumed
// run ends on the uninterrupted run's fingerprint. capture_ms is the
// interrupting poll to RunChaos's return (checkpoint capture plus the
// partial result's summary); resume_ms is RunChaos's entry to the
// first tick boundary of the resumed run (rebuild, decode, apply).
func snapshotProbe(r *run, parent int, cfg rr.ChaosConfig, want string) {
	mid := cellTicks(cfg) / 2
	group := "snapshot"
	root := r.spans.begin(parent, group, "snapshot")
	defer r.spans.end(root)

	first := &tickStamper{}
	head := cfg
	head.Interrupt = func() bool {
		first.hook()
		return len(first.at) > mid // the poll at boundary `mid`
	}
	t0 := perf.Now()
	res := rr.RunChaos(head)
	t1 := perf.Now()
	if !res.Interrupted || res.Checkpoint == nil {
		r.op(cfg.Label()+" checkpoint", []string{"run did not checkpoint at its midpoint"})
		return
	}
	poll := first.at[len(first.at)-1]
	r.spans.add(root, group, "run_to_mid", t0, poll)
	r.spans.add(root, group, "capture", poll, t1)
	r.m.set("snapshot.capture_ms", ms(float64(t1-poll)))
	r.m.set("snapshot.bytes", float64(len(res.Checkpoint.Data)))

	second := &tickStamper{}
	tail := cfg
	tail.ResumeFrom = res.Checkpoint.Data
	tail.Interrupt = second.hook
	t2 := perf.Now()
	resumed := rr.RunChaos(tail)
	t3 := perf.Now()
	if len(second.at) > 0 {
		r.spans.add(root, group, "resume", t2, second.at[0])
		r.spans.add(root, group, "run_to_end", second.at[0], t3)
		r.m.set("snapshot.resume_ms", ms(float64(second.at[0]-t2)))
	}
	r.op(cfg.Label()+" resumed", cellFailures(&resumed, want))
}

// cellLoad repeats one chaos cell: flock_dense_n300 and
// swarm_sparse_n1000.
type cellLoad struct {
	name string
	cfg  rr.ChaosConfig
	want string // the fingerprint every repeat must produce
}

func (c *cellLoad) close() {}

// setup pins the expected fingerprint (golden at the golden seed) and
// warms the process with a two-second cut of the cell: same swarm,
// same construction, eight ticks.
func (c *cellLoad) setup(r *run) error {
	if r.pinned() {
		g, err := loadGolden()
		if err != nil {
			return err
		}
		c.want = g.Cells[c.name]
		if c.want == "" {
			return fmt.Errorf("golden.json has no fingerprint for %s; run -update-golden", c.name)
		}
	}
	warm := c.cfg
	warm.DurationSec = 2
	res := rr.RunChaos(warm)
	if res.Metrics.Robots != c.cfg.N {
		return fmt.Errorf("warm-up cell ran %d robots, want %d", res.Metrics.Robots, c.cfg.N)
	}
	return nil
}

// check scores one finished cell. Away from the golden seed the first
// repeat's fingerprint becomes the one the others must match.
func (c *cellLoad) check(r *run, res *rr.ChaosResult) {
	r.op(c.cfg.Label(), cellFailures(res, c.want))
	if c.want == "" {
		c.want = res.Metrics.Fingerprint
	}
}

func (c *cellLoad) measure(r *run) error {
	var opNs []float64
	w := openWindow()
	start := perf.Now()
	for len(opNs) < r.minOps() || fits(start, r.budgetNs(), median(opNs)) {
		t0 := perf.Now()
		res := rr.RunChaos(c.cfg)
		opNs = append(opNs, float64(perf.Now()-t0))
		c.check(r, &res)
	}
	u := w.close()
	r.endToEndFrom(opNs, robotTicks(c.cfg), u)
	return nil
}

func (c *cellLoad) traced(r *run) error {
	root := r.spans.begin(0, c.name, "workload")
	// The drills take a fixed part of the window and the checkpoint
	// probe about one cell, so another pair must leave room for a third
	// cell.
	start, budget := perf.Now(), r.budgetNs()-drillsNs(r)
	c.tracedPairs(r, root, func(pairs int, cellNs float64) bool {
		return pairs < min(2, r.minOps()) || fits(start, budget, 3*cellNs)
	})
	runDrills(r, root, c.cfg.N, c.cfg.SpacingM)
	r.spans.end(root)
	return nil
}

// tracedPairs alternates traced and untraced runs of the cell for as
// long as more (pairs so far, median traced cell time) says, every one
// held to the same fingerprint, then reports the sim., radio., core.
// and runtime. metrics and runs the checkpoint probe.
func (c *cellLoad) tracedPairs(r *run, root int, more func(pairs int, cellNs float64) bool) {
	tally := &layerTally{}
	var tracedNs, plainNs []float64
	w := openWindow()
	for i := 0; more(i, median(tracedNs)); i++ {
		tally.resetCounts()
		res, ns := tracedCell(r, root, fmt.Sprintf("cell-%d", i), c.cfg, tally)
		tracedNs = append(tracedNs, float64(ns))
		tally.addCounts(&res)
		c.check(r, &res)

		t0 := perf.Now()
		plain := rr.RunChaos(c.cfg)
		plainNs = append(plainNs, float64(perf.Now()-t0))
		c.check(r, &plain)
	}
	u := w.close()
	r.m.set("sim.trace_overhead_pct", 100*(median(tracedNs)/median(plainNs)-1))
	r.m.set("runtime.gc_cycles_per_cell", float64(u.gcCycles)/float64(len(tracedNs)+len(plainNs)))
	r.m.set("runtime.gc_cpu_share", u.gcCPUShare())
	r.samples["traced_cells"] = len(tracedNs)
	r.samples["ticks"] = len(tally.tickNs)
	tally.report(r.m)
	r.describe("traced tick", tally.tickNs)
	snapshotProbe(r, root, c.cfg, c.want)
}
