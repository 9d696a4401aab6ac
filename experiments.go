package roborebound

import (
	"fmt"
	"time"

	"roborebound/internal/attack"
	"roborebound/internal/flocking"
	"roborebound/internal/geom"
	"roborebound/internal/metrics"
	"roborebound/internal/obs/perf"
	"roborebound/internal/runner"
	"roborebound/internal/wire"
)

// This file reproduces the simulation experiments: Fig. 2 (attack
// impact on a 125-robot flock), Fig. 6 (bandwidth & storage vs. f_max
// and audit period), Fig. 7 (scalability vs. density and vs. flock
// size), and Figs. 8–9 (the example attack without and with
// RoboRebound).
//
// Every sweep is a grid of independent (scenario, seed) cells — each
// cell builds its own World, Medium, and PRNG — so the sweeps execute
// on the internal/runner worker pool. Results always come back in
// input order, identical to the serial loops they replaced; pass
// SweepOptions{Workers: 1} for the serial path. Each experiment has
// one entry point, and a nil list or zero duration takes the paper's
// value.

// ------------------------------------------------------- sweep runner

// SweepProgress describes one finished sweep cell.
type SweepProgress struct {
	// Done cells so far (including this one) out of Total.
	Done, Total int
	// Label identifies the cell (e.g. "fig7 N=64 spacing=16m").
	Label string
	// Elapsed is the cell's wall-clock simulation time.
	Elapsed time.Duration
}

// SweepOptions control how a sweep's independent cells execute.
// Parallelism never changes results: any Workers value produces
// byte-identical output in the same order.
type SweepOptions struct {
	// Workers bounds cell concurrency: 1 runs cells serially on the
	// calling goroutine, 0 means GOMAXPROCS.
	Workers int
	// Progress, if non-nil, is invoked once per completed cell. Calls
	// are serialized by the runner; under parallelism the completion
	// order (and hence the Label sequence) is nondeterministic, but
	// Done/Total always advance monotonically.
	Progress func(SweepProgress)
	// Meter, if non-nil, collects sweep telemetry — per-cell latency
	// percentiles and worker utilization — through the runner pool
	// (see perf.SweepMeter). Observation-only.
	Meter *perf.SweepMeter
}

// runnerOpts adapts SweepOptions to the worker pool for an n-cell
// sweep whose cells are labeled by label(i).
func (o SweepOptions) runnerOpts(n int, label func(i int) string) runner.Options {
	ro := runner.Options{Workers: o.Workers, Meter: o.Meter}
	if o.Progress != nil {
		done := 0 // safe: the runner serializes OnDone
		ro.OnDone = func(i int, elapsed time.Duration) {
			done++
			o.Progress(SweepProgress{Done: done, Total: n, Label: label(i), Elapsed: elapsed})
		}
	}
	return ro
}

// ---------------------------------------------------------------- Fig 6

// Fig6Point is one bar of Fig. 6: per-robot mean bandwidth split into
// application vs. audit traffic, plus storage, for one (f_max, audit
// period) cell.
type Fig6Point struct {
	Fmax           int
	AuditPeriodSec float64
	TxAppBps       float64
	TxAuditBps     float64
	RxAppBps       float64
	RxAuditBps     float64
	StorageBytes   float64
}

// Fig6Config parameterizes the sweep; zero values take the paper's
// setup (i): 25 robots, 4 m spacing, goal (500,500), 50 s.
type Fig6Config struct {
	N           int
	SpacingM    float64
	DurationSec float64
	Seed        uint64
	Fmaxes      []int
	PeriodsSec  []float64
}

func (c Fig6Config) withDefaults() Fig6Config {
	if c.N == 0 {
		c.N = 25
	}
	if c.SpacingM == 0 {
		c.SpacingM = 4
	}
	if c.DurationSec == 0 {
		c.DurationSec = 50
	}
	if c.Fmaxes == nil {
		c.Fmaxes = []int{0, 1, 2, 3}
	}
	if c.PeriodsSec == nil {
		c.PeriodsSec = []float64{2, 4, 8}
	}
	return c
}

// RunFig6Sweep sweeps f_max and the audit period. Points come back in
// (period-major, then f_max) order regardless of worker count.
func RunFig6Sweep(cfg Fig6Config, opts SweepOptions) []Fig6Point {
	cfg = cfg.withDefaults()
	type cell struct {
		period float64
		fmax   int
	}
	var cells []cell
	for _, period := range cfg.PeriodsSec {
		for _, fmax := range cfg.Fmaxes {
			cells = append(cells, cell{period: period, fmax: fmax})
		}
	}
	label := func(i int) string {
		return fmt.Sprintf("fig6 fmax=%d T_audit=%gs", cells[i].fmax, cells[i].period)
	}
	return runner.AllOpts(opts.runnerOpts(len(cells), label), len(cells), func(i int) Fig6Point {
		c := cells[i]
		f := c.fmax
		if f == 0 {
			f = -1 // explicit zero in FlockScenario's convention
		}
		simu := FlockScenario{
			N:                  cfg.N,
			Spacing:            cfg.SpacingM,
			Goal:               geom.V(500, 500),
			Protected:          true,
			Fmax:               f,
			AuditPeriodSeconds: c.period,
			Seed:               cfg.Seed,
		}.Build()
		simu.RunSeconds(cfg.DurationSec)
		bw := simu.MeanBandwidth()
		return Fig6Point{
			Fmax:           c.fmax,
			AuditPeriodSec: c.period,
			TxAppBps:       bw.TxApp,
			TxAuditBps:     bw.TxAudit,
			RxAppBps:       bw.RxApp,
			RxAuditBps:     bw.RxAudit,
			StorageBytes:   simu.MeanStorage(),
		}
	})
}

// ---------------------------------------------------------------- Fig 7

// Fig7Point is one sample of the scalability sweeps.
type Fig7Point struct {
	N            int
	SpacingM     float64
	BandwidthBps float64 // mean per-robot total goodput (tx app+audit)
	StorageBytes float64
	MeanPeers    float64 // robots within radio range at start
}

// RunFig7DensitySweep sweeps inter-robot distance at fixed flock sizes
// (Fig. 7a/7b). Points come back in (size-major, then spacing) order.
func RunFig7DensitySweep(sizes []int, spacings []float64, durationSec float64, seed uint64, opts SweepOptions) []Fig7Point {
	if sizes == nil {
		sizes = []int{16, 36, 64, 100}
	}
	if spacings == nil {
		spacings = []float64{4, 8, 16, 32, 64}
	}
	if durationSec == 0 {
		durationSec = 50
	}
	type cell struct {
		n       int
		spacing float64
	}
	var cells []cell
	for _, n := range sizes {
		for _, spacing := range spacings {
			cells = append(cells, cell{n: n, spacing: spacing})
		}
	}
	label := func(i int) string {
		return fmt.Sprintf("fig7 N=%d spacing=%gm", cells[i].n, cells[i].spacing)
	}
	return runner.AllOpts(opts.runnerOpts(len(cells), label), len(cells), func(i int) Fig7Point {
		return runFig7Cell(cells[i].n, cells[i].spacing, durationSec, seed)
	})
}

// RunFig7ScaleSweep sweeps flock size at fixed 64 m spacing (Fig.
// 7c/7d). Points come back in the order of sizes.
func RunFig7ScaleSweep(sizes []int, durationSec float64, seed uint64, opts SweepOptions) []Fig7Point {
	if sizes == nil {
		sizes = []int{16, 36, 64, 100, 144, 196, 256, 324}
	}
	if durationSec == 0 {
		durationSec = 50
	}
	label := func(i int) string {
		return fmt.Sprintf("fig7 N=%d spacing=64m", sizes[i])
	}
	return runner.AllOpts(opts.runnerOpts(len(sizes), label), len(sizes), func(i int) Fig7Point {
		return runFig7Cell(sizes[i], 64, durationSec, seed)
	})
}

func runFig7Cell(n int, spacing, durationSec float64, seed uint64) Fig7Point {
	s := FlockScenario{
		N:         n,
		Spacing:   spacing,
		Goal:      geom.V(500, 500),
		Protected: true,
		Seed:      seed,
	}.Build()
	// Mean initial neighbor count (radio-range peers).
	ids := s.IDs()
	var peers []float64
	for _, id := range ids {
		peers = append(peers, float64(len(s.Medium.NeighborsOf(id, ids))))
	}
	s.RunSeconds(durationSec)
	bw := s.MeanBandwidth()
	return Fig7Point{
		N:            n,
		SpacingM:     spacing,
		BandwidthBps: bw.TxGoodput,
		StorageBytes: s.MeanStorage(),
		MeanPeers:    metrics.Mean(peers),
	}
}

// ------------------------------------------------------------- Fig 8/9

// AttackRunConfig describes the §5.3 example-attack scenario.
type AttackRunConfig struct {
	N               int     // 25
	SpacingM        float64 // 20 (25 robots spanning a 100 m arena side)
	GoalX, GoalY    float64 // destination
	DurationSec     float64 // 150
	CompromiseAtSec float64 // 15
	Z, Epsilon, C   float64 // attack parameters (150, 2, 1)
	Seed            uint64
	Protected       bool
	DisableAttack   bool
}

// DefaultAttackRun returns the Fig. 8/9 setup.
func DefaultAttackRun() AttackRunConfig {
	return AttackRunConfig{
		N: 25, SpacingM: 20, GoalX: 250, GoalY: 250,
		DurationSec: 150, CompromiseAtSec: 15,
		Z: 150, Epsilon: 2, C: 1,
		Seed: 3,
	}
}

// AttackRunResult captures the traces Figs. 8–9 plot.
type AttackRunResult struct {
	// SampleTimesSec and DistSeries[i] give each robot's
	// distance-to-goal trace (correct robots only).
	SampleTimesSec []float64
	DistSeries     map[wire.RobotID][]float64
	FinalPositions map[wire.RobotID][2]float64
	// AttackActiveSec is the window during which the compromised robot
	// could act: [compromise, safe-mode] (or [compromise, end] when
	// never disabled). Zero-width when no attack ran.
	AttackActiveSec [2]float64
	AttackerKilled  bool
	CorrectDisabled []wire.RobotID
	Crashes         int
	MeanFinalDist   float64
}

// RunAttackSweep executes independent attack runs (e.g. Fig. 8's
// baseline and undefended variants, or a seed sweep) on the parallel
// sweep runner, returning results in input order.
func RunAttackSweep(cfgs []AttackRunConfig, opts SweepOptions) []AttackRunResult {
	label := func(i int) string {
		c := cfgs[i]
		mode := "undefended"
		if c.Protected {
			mode = "defended"
		}
		if c.DisableAttack {
			mode = "no-attack"
		}
		return fmt.Sprintf("attack N=%d seed=%d %s", c.N, c.Seed, mode)
	}
	return runner.AllOpts(opts.runnerOpts(len(cfgs), label), len(cfgs), func(i int) AttackRunResult {
		return RunAttack(cfgs[i])
	})
}

// RunAttack executes one Fig. 8/9 run. The attacker takes the grid's
// row-0, last-column corner (slot 4 of the paper's 5×5 grid, slot 2 of
// a 3×3): once disabled it parks as an invisible obstacle, and that
// corner is the one spot the rest of the diagonal sweep never crosses.
func RunAttack(cfg AttackRunConfig) AttackRunResult {
	goal := geom.V(cfg.GoalX, cfg.GoalY)
	slot := gridSide(cfg.N) - 1
	fs := FlockScenario{
		N:         cfg.N,
		Spacing:   cfg.SpacingM,
		Goal:      goal,
		Protected: cfg.Protected,
		Fmax:      3,
		Seed:      cfg.Seed,
	}
	if !cfg.DisableAttack {
		fs.Compromised = []CompromisedSpec{{
			Index:        slot,
			AtSeconds:    cfg.CompromiseAtSec,
			Strategy:     SpoofStrategy(cfg.Z, cfg.Epsilon, cfg.C),
			KeepProtocol: true, // the spoofer keeps flying with the flock (only its broadcasts lie)
		}}
	}
	s := fs.Build()
	dt := s.TrackDistances(goal)
	s.RunSeconds(cfg.DurationSec)

	res := AttackRunResult{
		DistSeries:     make(map[wire.RobotID][]float64),
		FinalPositions: make(map[wire.RobotID][2]float64),
		Crashes:        len(s.World.Crashes()),
	}
	// Downsample traces to 1 Hz for plotting.
	const step = TicksPerSecond
	for _, id := range s.CorrectIDs() {
		series := dt.Series[id]
		var vals []float64
		for i := 0; i < series.Len(); i += step {
			vals = append(vals, series.Values[i])
		}
		res.DistSeries[id] = vals
		if pos, ok := s.World.Position(id); ok {
			res.FinalPositions[id] = [2]float64{pos.X, pos.Y}
		}
	}
	for i := 0; i < len(res.DistSeries[s.CorrectIDs()[0]]); i++ {
		res.SampleTimesSec = append(res.SampleTimesSec, float64(i*step)/TicksPerSecond)
	}
	res.MeanFinalDist = dt.MeanFinalDistance(s.CorrectIDs())
	res.CorrectDisabled = s.CorrectInSafeMode()

	if !cfg.DisableAttack {
		comp := s.Compromised(wire.RobotID(slot + 1))
		// The BTI window runs from the first *actual* misbehavior (the
		// spoofer may idle until victims come into its victim filter)
		// to the safe-mode trigger.
		start := cfg.CompromiseAtSec
		if at, ok := comp.FirstMisbehaviorAt(); ok {
			start = s.Seconds(at)
		}
		end := cfg.DurationSec
		if comp.InSafeMode() {
			res.AttackerKilled = true
			end = s.Seconds(comp.SafeModeAt())
		}
		res.AttackActiveSec = [2]float64{start, end}
	}
	return res
}

// ---------------------------------------------------------------- Fig 2

// Fig2Config is the 125-robot masquerade-attack illustration (§2.4).
type Fig2Config struct {
	N              int     // 125
	NumCompromised int     // 10
	SpacingM       float64 // flock pitch
	GoalX, GoalY   float64
	DurationSec    float64
	Seed           uint64
	WithObstacles  bool
}

// DefaultFig2 returns the §2.4 setup scaled to this simulator.
func DefaultFig2() Fig2Config {
	return Fig2Config{N: 125, NumCompromised: 10, SpacingM: 15,
		GoalX: 450, GoalY: 450, DurationSec: 300, Seed: 2, WithObstacles: true}
}

// Fig2Result summarizes one Fig. 2 panel.
type Fig2Result struct {
	MeanDistToGoal float64
	MedianDist     float64
	WithinZ        int // correct robots that made it inside the keep-out ring
	CorrectRobots  int
	FinalPositions map[wire.RobotID][2]float64
	Crashes        int
}

// RunFig2 runs the no-attack or attack variant of Fig. 2 (unprotected,
// as in the paper's motivation section).
func RunFig2(cfg Fig2Config, withAttack bool) Fig2Result {
	goal := geom.V(cfg.GoalX, cfg.GoalY)
	fs := FlockScenario{
		N:          cfg.N,
		Spacing:    cfg.SpacingM,
		Goal:       goal,
		Seed:       cfg.Seed,
		JitterM:    1,
		MaxSpeedMS: 4,
		// Table 3's α gains (0.005/0.05) cannot resist the goal
		// spring's squeeze at obstacle chokepoints — the lattice gets
		// crushed and robots collide. The obstacle scenario stiffens
		// the lattice; EXPERIMENTS.md records the deviation.
		Tune: func(p *flocking.Params) {
			p.C1Alpha = 0.3
			p.C2Alpha = 0.4
		},
	}
	if cfg.WithObstacles {
		// A grid of obstacles on the flock's way to the destination,
		// as in Fig. 2's snapshots (centered a bit past the midpoint).
		base := goal.Scale(0.55).Sub(geom.V(60, 60))
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				fs.Obstacles = append(fs.Obstacles, geom.SphereObstacle{
					C: base.Add(geom.V(float64(i)*60, float64(j)*60)), R: 10,
				})
			}
		}
	}
	if withAttack {
		stride := cfg.N / cfg.NumCompromised
		for k := 0; k < cfg.NumCompromised; k++ {
			k := k
			fs.Compromised = append(fs.Compromised, CompromisedSpec{
				Index:     k * stride,
				AtSeconds: 0,
				Strategy: func(ids []wire.RobotID, goal geom.Vec2) attack.Strategy {
					return &attack.Spoof{Goal: goal, Z: 150, Epsilon: 2, C: 1,
						IDs: ids, Period: 1, PhantomsPerVictim: 4,
						MaxVictimDist: 200,
						VictimMod:     cfg.NumCompromised, VictimResidue: k}
				},
				KeepProtocol: true, // attackers fly with the flock
			})
		}
	}
	s := fs.Build()
	dt := s.TrackDistances(goal)
	s.RunSeconds(cfg.DurationSec)

	res := Fig2Result{
		FinalPositions: make(map[wire.RobotID][2]float64),
		Crashes:        len(s.World.Crashes()),
	}
	var finals []float64
	for _, id := range s.CorrectIDs() {
		d := dt.Series[id].Final()
		finals = append(finals, d)
		if d < 150 {
			res.WithinZ++
		}
		if pos, ok := s.World.Position(id); ok {
			res.FinalPositions[id] = [2]float64{pos.X, pos.Y}
		}
	}
	res.CorrectRobots = len(finals)
	res.MeanDistToGoal = metrics.Mean(finals)
	res.MedianDist = metrics.Percentile(finals, 50)
	return res
}
