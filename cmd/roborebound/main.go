// Command roborebound regenerates the tables and figures of the
// RoboRebound paper (EuroSys 2025) from the Go reproduction.
//
// Usage:
//
//	roborebound [-quick] [-seed N] [-parallel N] <subcommand>
//
// Subcommands: fig2 fig5 fig6 fig7 fig8 fig9 table1 table2 chaos trace
// perf snapshot resume serve all
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	rr "roborebound"
	"roborebound/internal/faultinject"
	"roborebound/internal/obs/perf"
)

// out is the destination for all report output. Tests swap it for a
// buffer; everything user-facing goes through it so subcommands stay
// checkable without running a subprocess.
var out io.Writer = os.Stdout

var (
	quick    = flag.Bool("quick", false, "run reduced sweeps (seconds instead of minutes)")
	seed     = flag.Uint64("seed", 1, "simulation seed")
	svgDir   = flag.String("svg", "", "also write figure panels as SVG files into this directory (fig2/fig8/fig9)")
	parallel = flag.Int("parallel", 0,
		"worker count for experiment sweeps: 0 = all cores, 1 = serial (results are identical either way)")
	progress = flag.Bool("progress", true, "print per-cell sweep progress and timing to stderr")
)

// curMeter is the sweep meter of the timed() call in flight. sweepOpts
// attaches it to the sweep so the runner pool feeds per-cell latency
// and worker utilization back to timed's summary line. All CLI
// wall-clock reads go through the perf package's monotonic clock —
// the repo's one audited wall-clock seam.
var curMeter *perf.SweepMeter

// sweepOpts threads -parallel and -progress into a sweep call.
func sweepOpts() rr.SweepOptions {
	opts := rr.SweepOptions{Workers: *parallel, Meter: curMeter}
	if *progress {
		opts.Progress = func(p rr.SweepProgress) {
			fmt.Fprintf(os.Stderr, "  [%d/%d] %s  %.2fs\n", p.Done, p.Total, p.Label, p.Elapsed.Seconds())
		}
	}
	return opts
}

// timed reports a sweep's total wall-clock next to its cell count
// (returned by f), so the -parallel speedup is visible at a glance,
// plus the pool's per-cell latency percentiles and utilization.
func timed(name string, f func() int) {
	meter := perf.NewSweepMeter(nil)
	curMeter = meter
	start := perf.Now()
	cells := f()
	curMeter = nil
	if *progress {
		fmt.Fprintf(os.Stderr, "  %s: %d cells in %.2fs (-parallel %d)\n",
			name, cells, float64(perf.Now()-start)/1e9, *parallel)
		if rep := meter.Report(); rep.Cells > 0 {
			fmt.Fprintf(os.Stderr, "    cell latency p50=%.2fs p95=%.2fs p99=%.2fs  workers=%d util=%.0f%%\n",
				rep.P50Ns/1e9, rep.P95Ns/1e9, rep.P99Ns/1e9, rep.Workers, rep.Utilization*100)
		}
	}
}

func writeSVG(name, doc string) {
	if *svgDir == "" {
		return
	}
	if err := os.MkdirAll(*svgDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "svg: %v\n", err)
		return
	}
	path := filepath.Join(*svgDir, name)
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "svg: %v\n", err)
		return
	}
	fmt.Fprintf(out, "  wrote %s\n", path)
}

// cmds maps each subcommand but "all" to its implementation, which
// returns the process's exit status.
var cmds = map[string]func() int{
	"fig2":   fig2,
	"fig5":   fig5,
	"fig6":   fig6,
	"fig7":   fig7,
	"fig8":   fig8,
	"fig9":   fig9,
	"table1": table1,
	"table2": table2,
	"chaos":  chaos,
	"trace":  traceCmd,
	"perf":   perfCmd,

	"snapshot": snapshotCmd,
	"resume":   resumeCmd,
	"serve":    serveCmd,
}

// allCmds is what "all" runs, in order: every table and figure.
var allCmds = []string{"table1", "table2", "fig5", "fig6", "fig7", "fig2", "fig8", "fig9"}

func main() {
	flag.Usage = usage
	flag.Parse()
	os.Exit(run(flag.Args()))
}

// run runs the subcommand args name and returns the exit status: 2 for
// bad arguments, else the subcommand's. Profiles started for it are
// flushed before run returns, whatever the status.
func run(args []string) int {
	if len(args) < 1 {
		usage()
		return 2
	}
	if err := checkArgs(args); err != nil {
		fmt.Fprintln(os.Stderr, err)
		usage()
		return 2
	}
	f, ok := cmds[args[0]]
	if args[0] == "all" {
		f, ok = all, true
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown subcommand %q\n", args[0])
		usage()
		return 2
	}
	stopProfiles, err := startProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer stopProfiles()
	return f()
}

// all runs every table and figure in allCmds order; it fails if one
// does.
func all() int {
	exit := 0
	for _, name := range allCmds {
		fmt.Fprintf(out, "\n================ %s ================\n", strings.ToUpper(name))
		exit = max(exit, cmds[name]())
	}
	return exit
}

// checkArgs rejects arguments after the subcommand. The flag package
// stops parsing at the first positional, so a trailing "-n 300" would
// otherwise be ignored and the default cell run in its place. Only
// trace takes a positional: its scenario. It also rejects a snapshot or
// perf cell RunChaos would refuse, or one too short to schedule a fault
// (it would run fault-free under a faulted label), naming the flag.
func checkArgs(args []string) error {
	rest := args[1:]
	if args[0] == "trace" && len(rest) > 0 && !strings.HasPrefix(rest[0], "-") {
		if !slices.Contains(rr.Controllers(), rest[0]) {
			return fmt.Errorf("unknown trace scenario %q (want one of %v)", rest[0], rr.Controllers())
		}
		rest = rest[1:]
	}
	if len(rest) > 0 {
		return fmt.Errorf("unexpected argument %q after %q: flags go before the subcommand", rest[0], args[0])
	}
	if args[0] != "snapshot" && args[0] != "perf" {
		return nil
	}
	cell := cellConfig(args[0])
	var bad *rr.ChaosConfigError
	if errors.As(cell.Check(), &bad) {
		flags := map[string]string{"Controller": "-controller", "Profile": "-profile", "N": "-n", "DurationSec": "-duration"}
		return fmt.Errorf("%s %s %#v (want %s)", bad.Problem, flags[bad.Field], bad.Value, bad.Want)
	}
	if !cell.Schedulable() {
		return fmt.Errorf("-duration %g schedules no %s faults: the run is too short", cell.DurationSec, *snapProfile)
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: roborebound [flags] <subcommand>
       (flags go before the subcommand; only trace takes an argument)

subcommands:
  table1   worst-case a-node load model (§5.1 Table 1)
  table2   worst-case s-node load model (§5.1 Table 2)
  fig5     hash/MAC latency and I/O overhead (§5.1 Fig. 5)
  fig6     bandwidth & storage vs f_max and audit period (§5.2 Fig. 6)
  fig7     scalability vs density and flock size (§5.2 Fig. 7)
  fig2     masquerade attack on a 125-robot flock (§2.4 Fig. 2)
  fig8     example attack, baseline + undefended (§5.3 Fig. 8)
  fig9     example attack with RoboRebound (§5.3 Fig. 9)
  chaos    cross-seed fault-injection soak with invariant checking
  trace [scenario]
           run one scenario fully instrumented and export its protocol
           event log / Perfetto trace / metrics (see -events, -perfetto,
           -metrics); scenarios: flocking (default), patrol, warehouse
  perf     run one chaos cell (-controller/-profile/-n/-duration)
           untimed and then with the wall-clock performance plane
           attached; prove the runs byte-identical, print the
           phase-attributed timing table and runtime telemetry, and
           export a merged tick+wall-clock Perfetto trace (-perfetto)
           or a JSON report (-json)
  snapshot run one chaos cell (-controller/-profile/-seed/-duration) and
           write its full run state at tick -at (default: midpoint) to -o;
           the file embeds the cell config, so it is self-contained
  resume   rebuild the cell from -from and run it to completion; with
           -verify, also re-run it uninterrupted and exit nonzero unless
           fingerprints and metrics are byte-identical
  serve    simulation-as-a-service: listen on -addr and expose every
           facade as submitted jobs behind a round-robin multi-tenant
           scheduler (bounded queues, 429+Retry-After backpressure,
           long-polled job status, raw/gzip artifacts); SIGTERM
           drains gracefully — running jobs finish or checkpoint,
           queued jobs are rejected with resubmission handles
  all      every figure and table above

flags:`)
	flag.PrintDefaults()
}

func table1() int {
	costs := rr.MeasuredCostModel()
	fmt.Fprintf(out, "Worst-case a-node load (T_audit=4s, T_state=1.5s, T_ctl=0.25s, f_max=3, 10 peers)\n")
	fmt.Fprintf(out, "cost model: MAC=%.1fms  hash=%.1fms  io=%.0f/%.0fms (host-measured crypto × PIC scale %g)\n\n",
		costs.MACMs, costs.HashMs, costs.IOSmallMs, costs.IOLargeMs, rr.PICSlowdown)
	printLoad(rr.Table1(rr.PaperRateConfig(), costs))
	fmt.Fprintf(out, "\npaper reports a total of 17.28%% with its measured PIC costs\n")
	return 0
}

func table2() int {
	costs := rr.MeasuredCostModel()
	fmt.Fprintf(out, "Worst-case s-node load (same configuration)\n\n")
	printLoad(rr.Table2(rr.PaperRateConfig(), costs))
	fmt.Fprintf(out, "\npaper reports a total of 5.99%%\n")
	return 0
}

func printLoad(rows []rr.LoadRow) {
	fmt.Fprintf(out, "%-42s %8s %8s %8s\n", "Primitive (computation)", "ms/op", "ops/s", "Load")
	for _, r := range rows {
		if r.Primitive == "Total" {
			fmt.Fprintf(out, "%-42s %8s %8s %7.2f%%\n", "Total", "", "", r.LoadPct)
			continue
		}
		fmt.Fprintf(out, "%-42s %8.1f %8.2f %7.2f%%\n", r.Primitive, r.MsPerOp, r.OpsPerSec, r.LoadPct)
	}
}

func fig5() int {
	iters := 5000
	if *quick {
		iters = 500
	}
	fmt.Fprintln(out, "Fig. 5a — SHA-1 and LightMAC latency vs argument size (host ns, per-op distribution)")
	fmt.Fprintf(out, "%8s | %10s %8s %8s %8s %10s | %10s %8s %8s %8s %10s\n",
		"bytes", "hash mean", "p50", "p95", "p99", "hash PICms", "MAC mean", "p50", "p95", "p99", "MAC PICms")
	hash := rr.MeasureHashLatency(iters)
	mac := rr.MeasureMACLatency(iters)
	for i := range hash {
		hd, md := hash[i].Dist, mac[i].Dist
		fmt.Fprintf(out, "%8d | %10.0f %8.0f %8.0f %8.0f %10.3f | %10.0f %8.0f %8.0f %8.0f %10.3f\n",
			hash[i].Bytes, hd.MeanNs, hd.P50Ns, hd.P95Ns, hd.P99Ns, hash[i].PICMs,
			md.MeanNs, md.P50Ns, md.P95Ns, md.P99Ns, mac[i].PICMs)
	}
	fmt.Fprintln(out, "\nFig. 5b — I/O (framing + copy) overhead vs message size (host ns)")
	fmt.Fprintf(out, "%8s | %10s %8s %8s | %10s %8s %8s\n",
		"bytes", "send mean", "p50", "p99", "recv mean", "p50", "p99")
	send, recv := rr.MeasureIOLatency(iters)
	for i := range send {
		sd, rd := send[i].Dist, recv[i].Dist
		fmt.Fprintf(out, "%8d | %10.0f %8.0f %8.0f | %10.0f %8.0f %8.0f\n",
			send[i].Bytes, sd.MeanNs, sd.P50Ns, sd.P99Ns, rd.MeanNs, rd.P50Ns, rd.P99Ns)
	}
	fmt.Fprintln(out, "\npaper anchors: SHA-1(270B) ≈ 1 ms, MAC(≤40B) ≈ 10–12 ms on the PIC;")
	fmt.Fprintln(out, "32B ≈ 0.3–0.4 ms, 512B ≈ 3–3.5 ms, 2kB ≈ 11–16 ms I/O")
	return 0
}

func fig6() int {
	cfg := rr.Fig6Config{Seed: *seed}
	if *quick {
		cfg.N = 9
		cfg.DurationSec = 20
		cfg.PeriodsSec = []float64{4}
	}
	var points []rr.Fig6Point
	timed("fig6 sweep", func() int {
		points = rr.RunFig6Sweep(cfg, sweepOpts())
		return len(points)
	})
	fmt.Fprintln(out, "Fig. 6 — per-robot bandwidth and storage vs f_max and audit period")
	fmt.Fprintf(out, "%7s %7s | %10s %10s %10s %10s | %10s\n",
		"f_max", "T_audit", "txApp B/s", "txAud B/s", "rxApp B/s", "rxAud B/s", "storage B")
	for _, p := range points {
		fmt.Fprintf(out, "%7d %6.0fs | %10.1f %10.1f %10.1f %10.1f | %10.0f\n",
			p.Fmax, p.AuditPeriodSec, p.TxAppBps, p.TxAuditBps, p.RxAppBps, p.RxAuditBps, p.StorageBytes)
	}
	fmt.Fprintln(out, "\nexpected shape: audit bandwidth grows with f_max+1, ≈flat in audit period;")
	fmt.Fprintln(out, "storage flat in f_max, linear in audit period; log ≈0.8 kB/s")
	return 0
}

func fig7() int {
	// Zero values take the paper's sizes, spacings and 50 s missions.
	var duration float64
	var sizes, scaleSizes []int
	var spacings []float64
	if *quick {
		duration = 15
		sizes = []int{16, 36}
		spacings = []float64{4, 64}
		scaleSizes = []int{16, 36, 64}
	}
	var density, scale []rr.Fig7Point
	timed("fig7 density sweep", func() int {
		density = rr.RunFig7DensitySweep(sizes, spacings, duration, *seed, sweepOpts())
		return len(density)
	})
	timed("fig7 scale sweep", func() int {
		scale = rr.RunFig7ScaleSweep(scaleSizes, duration, *seed, sweepOpts())
		return len(scale)
	})
	fmt.Fprintln(out, "Fig. 7a/7b — cost vs inter-robot distance (fixed N)")
	fmt.Fprintf(out, "%6s %9s %9s | %12s %11s\n", "N", "spacing", "peers", "goodput B/s", "storage B")
	for _, p := range density {
		fmt.Fprintf(out, "%6d %8.0fm %9.1f | %12.1f %11.0f\n", p.N, p.SpacingM, p.MeanPeers, p.BandwidthBps, p.StorageBytes)
	}
	fmt.Fprintln(out, "\nFig. 7c/7d — cost vs number of robots (64 m spacing)")
	fmt.Fprintf(out, "%6s %9s %9s | %12s %11s\n", "N", "spacing", "peers", "goodput B/s", "storage B")
	for _, p := range scale {
		fmt.Fprintf(out, "%6d %8.0fm %9.1f | %12.1f %11.0f\n", p.N, p.SpacingM, p.MeanPeers, p.BandwidthBps, p.StorageBytes)
	}
	fmt.Fprintln(out, "\nexpected shape: costs fall as density falls, then level off; per-robot")
	fmt.Fprintln(out, "cost ≈constant in N with a small edge-effect rise")
	return 0
}

func fig2() int {
	cfg := rr.DefaultFig2()
	cfg.Seed = *seed
	if *quick {
		cfg.N = 36
		cfg.NumCompromised = 3
		cfg.GoalX, cfg.GoalY = 250, 250
		cfg.DurationSec = 120
	}
	fmt.Fprintf(out, "Fig. 2 — %d-robot flock, %d masqueraders, unprotected\n\n", cfg.N, cfg.NumCompromised)
	clean := rr.RunFig2(cfg, false)
	attacked := rr.RunFig2(cfg, true)
	fmt.Fprintf(out, "%-24s %14s %14s %10s\n", "", "mean dist (m)", "median (m)", "within z")
	fmt.Fprintf(out, "%-24s %14.1f %14.1f %7d/%d\n", "no attack (Fig. 2a)",
		clean.MeanDistToGoal, clean.MedianDist, clean.WithinZ, clean.CorrectRobots)
	fmt.Fprintf(out, "%-24s %14.1f %14.1f %7d/%d\n", "10 compromised (Fig. 2b)",
		attacked.MeanDistToGoal, attacked.MedianDist, attacked.WithinZ, attacked.CorrectRobots)
	writeSVG("fig2a_noattack.svg", rr.RenderFig2Final("Fig 2a: no attack", cfg, clean, nil))
	writeSVG("fig2b_attack.svg", rr.RenderFig2Final("Fig 2b: 10 masqueraders", cfg, attacked, nil))
	fmt.Fprintln(out, "\nexpected shape: the attacked flock is held far from the destination")
	return 0
}

func fig8() int {
	cfg := rr.DefaultAttackRun()
	cfg.Seed = *seed
	if *quick {
		cfg.N = 9
		cfg.DurationSec = 60
	}
	fmt.Fprintln(out, "Fig. 8 — baseline runs (unprotected)")
	base := cfg
	base.DisableAttack = true
	// The clean and attacked runs are independent cells; run both on
	// the sweep runner.
	var results []rr.AttackRunResult
	timed("fig8 runs", func() int {
		results = rr.RunAttackSweep([]rr.AttackRunConfig{base, cfg}, sweepOpts())
		return len(results)
	})
	clean := results[0]
	fmt.Fprintf(out, "  (b,c) no attack:      mean final dist %.1f m, crashes %d\n",
		clean.MeanFinalDist, clean.Crashes)
	printTrace("        dist-to-goal", clean)
	writeSVG("fig8b_trace_noattack.svg", rr.RenderAttackTrace("Fig 8b: no attack", clean))
	writeSVG("fig8c_final_noattack.svg", rr.RenderAttackFinal("Fig 8c: final positions, no attack", base, clean))

	attacked := results[1]
	fmt.Fprintf(out, "  (d,e) attack, no defense: mean final dist %.1f m, attack active %.0fs–%.0fs (never stopped)\n",
		attacked.MeanFinalDist, attacked.AttackActiveSec[0], attacked.AttackActiveSec[1])
	printTrace("        dist-to-goal", attacked)
	writeSVG("fig8d_trace_attack.svg", rr.RenderAttackTrace("Fig 8d: attack, defense off", attacked))
	writeSVG("fig8e_final_attack.svg", rr.RenderAttackFinal("Fig 8e: final positions, attack, defense off", cfg, attacked))
	return 0
}

func fig9() int {
	cfg := rr.DefaultAttackRun()
	cfg.Seed = *seed
	cfg.Protected = true
	if *quick {
		cfg.N = 9
		cfg.DurationSec = 60
	}
	res := rr.RunAttack(cfg)
	fmt.Fprintln(out, "Fig. 9 — same attack with RoboRebound enabled")
	fmt.Fprintf(out, "  attacker active %.0fs–%.1fs (disabled: %v); mean final dist %.1f m; crashes %d\n",
		res.AttackActiveSec[0], res.AttackActiveSec[1], res.AttackerKilled, res.MeanFinalDist, res.Crashes)
	printTrace("  dist-to-goal", res)
	writeSVG("fig9a_trace_defended.svg", rr.RenderAttackTrace("Fig 9a: attack, RoboRebound enabled", res))
	writeSVG("fig9b_final_defended.svg", rr.RenderAttackFinal("Fig 9b: final positions, defended", cfg, res))
	fmt.Fprintln(out, "\nexpected shape: the attack window collapses to ≲T_val and the flock")
	fmt.Fprintln(out, "reaches roughly the no-attack final state")
	return 0
}

func printTrace(label string, res rr.AttackRunResult) {
	// Print the mean distance trace at ~10 sample points.
	n := len(res.SampleTimesSec)
	if n == 0 {
		return
	}
	step := n / 10
	if step == 0 {
		step = 1
	}
	fmt.Fprintf(out, "%s:", label)
	for i := 0; i < n; i += step {
		sum, cnt := 0.0, 0
		for _, series := range res.DistSeries {
			if i < len(series) {
				sum += series[i]
				cnt++
			}
		}
		fmt.Fprintf(out, " %.0fs:%.0fm", res.SampleTimesSec[i], sum/float64(cnt))
	}
	fmt.Fprintln(out)
}

// chaos runs the cross-seed fault-injection soak: every mission
// controller x every fault profile x a block of seeds, each cell
// watched tick-by-tick by the invariant checker. The process exits
// nonzero if any cell violates an invariant or leaves an attacker
// undisabled, so CI can gate on it directly.
func chaos() int {
	controllers := rr.Controllers()
	profiles := faultinject.Profiles()
	nseeds := uint64(10)
	if *quick {
		nseeds = 2
	}
	seeds := make([]uint64, 0, nseeds)
	for s := uint64(0); s < nseeds; s++ {
		seeds = append(seeds, *seed+s)
	}
	cfgs := rr.ChaosMatrix(controllers, profiles, seeds,
		rr.ChaosConfig{DurationSec: 60})

	var results []rr.ChaosResult
	timed("chaos matrix", func() int {
		results = rr.RunChaosMatrix(cfgs, sweepOpts())
		return len(results)
	})

	fmt.Fprintf(out, "Chaos soak — %d controllers x %d profiles x %d seeds = %d cells\n\n",
		len(controllers), len(profiles), len(seeds), len(results))
	fmt.Fprintf(out, "%-12s %-10s | %9s %9s %12s | %s\n",
		"controller", "profile", "attackers", "disabled", "latency(tk)", "verdict")
	bad := 0
	for _, r := range results {
		verdict := "ok"
		if r.Violation != nil {
			verdict = r.Violation.Error()
			bad++
		} else if r.Metrics.AttackersDisabled < r.Metrics.Attackers {
			verdict = "FAIL: attacker not disabled"
			bad++
		}
		lat := ""
		for i, l := range r.Metrics.DisableLatencyTicks {
			if i > 0 {
				lat += ","
			}
			lat += fmt.Sprintf("%d", l)
		}
		fmt.Fprintf(out, "%-12s %-10s | %9d %9d %12s | seed=%d %s\n",
			r.Config.Controller, r.Config.Profile,
			r.Metrics.Attackers, r.Metrics.AttackersDisabled, lat, r.Config.Seed, verdict)
	}
	if !chaosObsExports(results) {
		return 1
	}
	if bad > 0 {
		fmt.Fprintf(out, "\nchaos: %d/%d cells FAILED\n", bad, len(results))
		return 1
	}
	fmt.Fprintf(out, "\nchaos: all %d cells ok — no false positives, every attacker Safe-Moded within the BTI bound\n",
		len(results))
	return 0
}
