package main

import (
	"fmt"

	rr "roborebound"
	"roborebound/internal/obs/perf"
)

// matrixWorkers is the runner pool size of a measured pass: the box
// this benchmark is sized for has two cores.
const matrixWorkers = 2

// matrixLoad repeats passes of the small chaos matrix on the runner
// pool: chaos_matrix_small.
type matrixLoad struct {
	cells  []rr.ChaosConfig
	labels []string // cells' labels, built once: check runs inside the measured window
	ticks  float64  // robot-ticks of one pass
	want   []string // per-cell fingerprints every pass must produce
	digest string   // golden digest over want, at the golden seed
}

func newMatrixLoad(seed uint64, quick bool) *matrixLoad {
	l := &matrixLoad{cells: matrixCells(seed, quick)}
	for _, c := range l.cells {
		l.labels = append(l.labels, c.Label())
		l.ticks += robotTicks(c)
	}
	return l
}

func (l *matrixLoad) close() {}

// setup warms the process with the first seed's 21 cells (every
// controller and every fault profile once).
func (l *matrixLoad) setup(r *run) error {
	if r.pinned() {
		g, err := loadGolden()
		if err != nil {
			return err
		}
		if l.digest = g.MatrixSHA256; l.digest == "" {
			return fmt.Errorf("golden.json has no matrix digest; run -update-golden")
		}
	}
	var warm []rr.ChaosConfig
	for _, c := range l.cells {
		if c.Seed == l.cells[0].Seed {
			warm = append(warm, c)
		}
	}
	out := rr.RunChaosMatrix(warm, rr.SweepOptions{Workers: matrixWorkers})
	if len(out) != len(warm) {
		return fmt.Errorf("warm-up pass returned %d of %d cells", len(out), len(warm))
	}
	return nil
}

func fingerprints(results []rr.ChaosResult) []string {
	out := make([]string, len(results))
	for i := range results {
		out[i] = results[i].Metrics.Fingerprint
	}
	return out
}

// check scores every cell of one pass as an operation. The first pass
// fixes the fingerprints the later ones must repeat; at the golden
// seed their digest must also equal golden.json's.
func (l *matrixLoad) check(r *run, results []rr.ChaosResult) {
	first := l.want == nil
	if first {
		l.want = fingerprints(results)
		if l.digest != "" && digestStrings(l.want) != l.digest {
			r.op("matrix pass", []string{fmt.Sprintf("fingerprint digest %.12s, want golden %.12s", digestStrings(l.want), l.digest)})
		}
	}
	for i := range results {
		r.op(l.labels[i], cellFailures(&results[i], l.want[i]))
	}
}

func (l *matrixLoad) measure(r *run) error {
	var opNs []float64
	w := openWindow()
	start := perf.Now()
	for len(opNs) < r.minOps() || fits(start, r.budgetNs(), median(opNs)) {
		t0 := perf.Now()
		results := rr.RunChaosMatrix(l.cells, rr.SweepOptions{Workers: matrixWorkers})
		opNs = append(opNs, float64(perf.Now()-t0))
		l.check(r, results)
	}
	u := w.close()
	r.endToEndFrom(opNs, l.ticks, u)
	return nil
}

// tracedPass runs one pass with a PhaseTimer, a RuntimeSampler and a
// tick stamper per cell (cells run on two goroutines, so nothing is
// shared), a SweepMeter on the pool, and pass -> cell spans taken
// from the runner's progress callback.
func (l *matrixLoad) tracedPass(r *run, parent int, group string, tally *layerTally, cellNs *[]float64) ([]rr.ChaosResult, int64, float64) {
	cells := append([]rr.ChaosConfig(nil), l.cells...)
	timers := make([]*perf.PhaseTimer, len(cells))
	samplers := make([]*perf.RuntimeSampler, len(cells))
	stampers := make([]*tickStamper, len(cells))
	for i := range cells {
		timers[i] = perf.NewPhaseTimer(nil)
		samplers[i] = perf.NewRuntimeSampler(0)
		stampers[i] = &tickStamper{}
		cells[i].Perf, cells[i].PerfRuntime, cells[i].Interrupt = timers[i], samplers[i], stampers[i].hook
	}
	meter := perf.NewSweepMeter(nil)
	pass := r.spans.begin(parent, group, "pass")
	opts := rr.SweepOptions{Workers: matrixWorkers, Meter: meter, Progress: func(p rr.SweepProgress) {
		end := perf.Now()
		r.spans.add(pass, group, "cell", end-int64(p.Elapsed), end)
		*cellNs = append(*cellNs, float64(p.Elapsed))
	}}
	t0 := perf.Now()
	results := rr.RunChaosMatrix(cells, opts)
	ns := perf.Now() - t0
	r.spans.end(pass)

	tally.ops++
	tally.resetCounts()
	for i := range results {
		tally.addTicks(stampers[i].at)
		tally.addPhases(timers[i])
		tally.addRuntime(samplers[i].Report())
		tally.addCounts(&results[i])
	}
	return results, ns, meter.Report().Utilization
}

func (l *matrixLoad) traced(r *run) error {
	root := r.spans.begin(0, "chaos_matrix_small", "workload")
	tally := &layerTally{}
	var tracedNs, plainNs, cellNs, utilisation []float64
	w := openWindow()
	start := perf.Now()
	// Each round is a traced and an untraced two-worker pass; the
	// serial pass that follows costs about two more, and the drills and
	// the snapshot probe a fixed part.
	budget := r.budgetNs() - drillsNs(r)
	for i := 0; len(tracedNs) < min(2, r.minOps()) || fits(start, budget, 4*median(tracedNs)); i++ {
		results, ns, util := l.tracedPass(r, root, fmt.Sprintf("pass-%d", i), tally, &cellNs)
		tracedNs = append(tracedNs, float64(ns))
		utilisation = append(utilisation, util)
		l.check(r, results)

		t0 := perf.Now()
		plain := rr.RunChaosMatrix(l.cells, rr.SweepOptions{Workers: matrixWorkers})
		plainNs = append(plainNs, float64(perf.Now()-t0))
		l.check(r, plain)
	}
	u := w.close()

	t0 := perf.Now()
	serial := rr.RunChaosMatrix(l.cells, rr.SweepOptions{Workers: 1})
	serialNs := float64(perf.Now() - t0)
	l.check(r, serial)

	passes := float64(len(tracedNs) + len(plainNs))
	cells := sortedCopy(cellNs)
	r.m.set("runner.cell_p50_ms", ms(quantile(cells, 0.5)))
	r.m.set("runner.cell_p99_ms", ms(quantile(cells, 0.99)))
	r.m.set("runner.utilisation", median(utilisation))
	r.m.set("runner.speedup_2w", serialNs/median(plainNs))
	r.m.set("sim.trace_overhead_pct", 100*(median(tracedNs)/median(plainNs)-1))
	r.m.set("runtime.gc_cycles_per_cell", float64(u.gcCycles)/(passes*float64(len(l.cells))))
	r.m.set("runtime.gc_cpu_share", u.gcCPUShare())
	r.samples["traced_passes"] = len(tracedNs)
	r.samples["cells"] = len(cellNs)
	r.samples["ticks"] = len(tally.tickNs)
	tally.report(r.m)
	r.describe("traced cell", cellNs)

	snapshotProbe(r, root, l.cells[0], l.want[0])
	runDrills(r, root, 9, 20) // the flocking cells: nine robots at the default pitch
	r.spans.end(root)
	return nil
}
