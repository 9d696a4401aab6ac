package roborebound

// One benchmark per paper table/figure (plus ablations), so that
// `go test -bench=. -benchmem` regenerates every evaluation number in
// miniature. The cmd/roborebound CLI prints the full-scale versions;
// these benches use reduced sizes to keep -bench runs in seconds while
// preserving every shape the paper reports.

import (
	"testing"

	"roborebound/internal/cryptolite"
	"roborebound/internal/faultinject"
	"roborebound/internal/geom"
	"roborebound/internal/obs"
)

// ---------------------------------------------------------- Fig. 5a

func benchHash(b *testing.B, n int) {
	buf := make([]byte, n)
	b.SetBytes(int64(n))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = cryptolite.SHA1(buf)
	}
}

func benchMAC(b *testing.B, n int) {
	mac := cryptolite.NewLightMACFromSecret([]byte("bench"))
	buf := make([]byte, n)
	b.SetBytes(int64(n))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = mac.MAC(buf)
	}
}

func BenchmarkFig5a_Hash_27B(b *testing.B)  { benchHash(b, 27) }
func BenchmarkFig5a_Hash_270B(b *testing.B) { benchHash(b, 270) } // ten-message batch
func BenchmarkFig5a_Hash_2KB(b *testing.B)  { benchHash(b, 2048) }
func BenchmarkFig5a_MAC_27B(b *testing.B)   { benchMAC(b, 27) } // state message
func BenchmarkFig5a_MAC_40B(b *testing.B)   { benchMAC(b, 40) } // token
func BenchmarkFig5a_MAC_2KB(b *testing.B)   { benchMAC(b, 2048) }

// ---------------------------------------------------------- Fig. 5b

func benchIO(b *testing.B, n int) {
	payload := make([]byte, n)
	f := wireFrame(payload)
	enc := f.Encode()
	sink := make([]byte, 0, n+16)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, _ := decodeFrame(enc)
		sink = append(sink[:0], d.Payload...)
	}
	_ = sink
}

func BenchmarkFig5b_IO_32B(b *testing.B)  { benchIO(b, 32) }
func BenchmarkFig5b_IO_512B(b *testing.B) { benchIO(b, 512) }
func BenchmarkFig5b_IO_2KB(b *testing.B)  { benchIO(b, 2048) }

// ------------------------------------------------------ Tables 1–2

func BenchmarkTable1_ANodeLoadModel(b *testing.B) {
	costs := PaperCostModel()
	cfg := PaperRateConfig()
	var total float64
	for i := 0; i < b.N; i++ {
		rows := Table1(cfg, costs)
		total = rows[len(rows)-1].LoadPct
	}
	b.ReportMetric(total, "load%")
}

func BenchmarkTable2_SNodeLoadModel(b *testing.B) {
	costs := PaperCostModel()
	cfg := PaperRateConfig()
	var total float64
	for i := 0; i < b.N; i++ {
		rows := Table2(cfg, costs)
		total = rows[len(rows)-1].LoadPct
	}
	b.ReportMetric(total, "load%")
}

// ---------------------------------------------------------- Fig. 6

func BenchmarkFig6_Bandwidth(b *testing.B) {
	var last Fig6Point
	for i := 0; i < b.N; i++ {
		points := RunFig6Sweep(Fig6Config{
			N: 9, DurationSec: 20, Fmaxes: []int{3}, PeriodsSec: []float64{4},
		}, SweepOptions{Workers: 1})
		last = points[0]
	}
	b.ReportMetric(last.TxAuditBps, "auditB/s")
	b.ReportMetric(last.StorageBytes, "storageB")
}

// ---------------------------------------------------------- Fig. 7

func BenchmarkFig7_Density(b *testing.B) {
	var pts []Fig7Point
	for i := 0; i < b.N; i++ {
		pts = RunFig7DensitySweep([]int{16}, []float64{4, 64}, 15, 1, SweepOptions{Workers: 1})
	}
	b.ReportMetric(pts[0].BandwidthBps, "dense-B/s")
	b.ReportMetric(pts[1].BandwidthBps, "sparse-B/s")
}

func BenchmarkFig7_Scale(b *testing.B) {
	var pts []Fig7Point
	for i := 0; i < b.N; i++ {
		pts = RunFig7ScaleSweep([]int{16, 36}, 15, 1, SweepOptions{Workers: 1})
	}
	b.ReportMetric(pts[len(pts)-1].BandwidthBps, "B/s")
}

// ---------------------------------------------------------- Fig. 2

func BenchmarkFig2_Attack(b *testing.B) {
	cfg := DefaultFig2()
	cfg.N = 25
	cfg.NumCompromised = 2
	cfg.GoalX, cfg.GoalY = 250, 250
	cfg.DurationSec = 60
	var res Fig2Result
	for i := 0; i < b.N; i++ {
		res = RunFig2(cfg, true)
	}
	b.ReportMetric(res.MeanDistToGoal, "meanDist-m")
	b.ReportMetric(float64(res.WithinZ), "withinZ")
}

// -------------------------------------------------------- Figs. 8–9

func benchAttackRun(b *testing.B, protected, attackOn bool) AttackRunResult {
	cfg := DefaultAttackRun()
	cfg.N = 9
	cfg.DurationSec = 60
	cfg.Protected = protected
	cfg.DisableAttack = !attackOn
	var res AttackRunResult
	for i := 0; i < b.N; i++ {
		res = RunAttack(cfg)
	}
	b.ReportMetric(res.MeanFinalDist, "meanDist-m")
	return res
}

func BenchmarkFig8_Baseline(b *testing.B) {
	benchAttackRun(b, false, false)
}

func BenchmarkFig8_AttackNoDefense(b *testing.B) {
	res := benchAttackRun(b, false, true)
	b.ReportMetric(res.AttackActiveSec[1]-res.AttackActiveSec[0], "attackWindow-s")
}

func BenchmarkFig9_AttackDefended(b *testing.B) {
	res := benchAttackRun(b, true, true)
	b.ReportMetric(res.AttackActiveSec[1]-res.AttackActiveSec[0], "attackWindow-s")
}

// ---------------------------------------------- Sweep parallelism
//
// Wall-clock for the same Fig-7-style sweep serially vs on the
// worker pool — the speedup tracks core count because every cell is
// an independent simulation (results are byte-identical either way;
// see TestParallelSweepDeterminism*). On a 4-core box the parallel
// variant should run ≥ 2× faster; on a single core the two are
// equal-cost, the pool adding only channel overhead per cell.

func benchFig7Sweep(b *testing.B, workers int) {
	sizes := []int{9, 16, 25, 36}
	spacings := []float64{4, 64}
	var pts []Fig7Point
	for i := 0; i < b.N; i++ {
		pts = RunFig7DensitySweep(sizes, spacings, 10, 1, SweepOptions{Workers: workers})
	}
	b.ReportMetric(float64(len(pts)), "cells")
}

func BenchmarkSweep_Serial(b *testing.B)   { benchFig7Sweep(b, 1) }
func BenchmarkSweep_Parallel(b *testing.B) { benchFig7Sweep(b, 0) } // GOMAXPROCS workers

// -------------------------------------------------------- Ablations
//
// Design-choice sweeps DESIGN.md calls out: chain batching (§3.8),
// audit period, and f_max.

func BenchmarkAblation_BatchSize(b *testing.B) {
	for _, size := range []int{1, 10, 50} {
		b.Run(sizeName(size), func(b *testing.B) {
			entries := make([][]byte, 100)
			for i := range entries {
				entries[i] = make([]byte, 34) // sensor-entry sized
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				chainAll(entries, size)
			}
		})
	}
}

func BenchmarkAblation_AuditPeriod(b *testing.B) {
	for _, period := range []float64{2, 4, 8} {
		b.Run(secName(period), func(b *testing.B) {
			var pt Fig6Point
			for i := 0; i < b.N; i++ {
				pt = RunFig6Sweep(Fig6Config{
					N: 9, DurationSec: 20, Fmaxes: []int{3}, PeriodsSec: []float64{period},
				}, SweepOptions{Workers: 1})[0]
			}
			b.ReportMetric(pt.TxAuditBps, "auditB/s")
			b.ReportMetric(pt.StorageBytes, "storageB")
		})
	}
}

func BenchmarkAblation_Fmax(b *testing.B) {
	for _, fmax := range []int{1, 3} {
		b.Run(fmaxName(fmax), func(b *testing.B) {
			var pt Fig6Point
			for i := 0; i < b.N; i++ {
				pt = RunFig6Sweep(Fig6Config{
					N: 9, DurationSec: 20, Fmaxes: []int{fmax}, PeriodsSec: []float64{4},
				}, SweepOptions{Workers: 1})[0]
			}
			b.ReportMetric(pt.TxAuditBps, "auditB/s")
		})
	}
}

// ------------------------------------------------- Tracer overhead
//
// The observability layer's cost at full-simulation scale: the same
// chaos cell with the nil-guarded emit sites compiled in but no
// tracer attached (the shipping default) vs fully instrumented
// (collector + registry on top of the always-on flight recorder).
// The pair quantifies what `-events`/`-metrics` cost and pins that
// the disabled path stays cheap.

func benchChaosCell(b *testing.B, traced bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := ChaosConfig{
			Controller:  "flocking",
			Profile:     faultinject.ProfileNone,
			Seed:        1,
			DurationSec: 20,
		}
		if traced {
			cfg.Trace = obs.NewCollector()
			cfg.Metrics = obs.NewRegistry()
		}
		RunChaos(cfg)
	}
}

func BenchmarkObs_ChaosCellUntraced(b *testing.B) { benchChaosCell(b, false) }
func BenchmarkObs_ChaosCellTraced(b *testing.B)   { benchChaosCell(b, true) }

// BenchmarkAuditVerify measures the auditor's replay cost for one
// typical 4-second segment — the dominant c-node cost of the defense.
func BenchmarkAuditVerify(b *testing.B) {
	s := FlockScenario{
		N: 9, Spacing: 4, Goal: geom.V(120, 120), Protected: true, Fmax: 2, Seed: 1,
	}.Build()
	s.RunSeconds(20)
	served := uint64(0)
	for _, id := range s.IDs() {
		served += s.Robot(id).Engine().Stats().AuditsServed
	}
	if served == 0 {
		b.Fatal("no audits served in warmup")
	}
	b.ResetTimer()
	// Run additional simulated seconds; report audits per wall second.
	for i := 0; i < b.N; i++ {
		s.RunSeconds(1)
	}
}
