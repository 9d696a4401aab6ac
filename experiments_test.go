package roborebound

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"strings"
	"testing"

	"roborebound/internal/wire"
)

// Shape assertions over the experiment harnesses at reduced scale —
// the properties the paper's figures exhibit, enforced in CI.

func TestFig6Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	points := RunFig6Sweep(Fig6Config{
		N: 9, DurationSec: 24, Seed: 1,
		Fmaxes: []int{0, 1, 2}, PeriodsSec: []float64{4, 8},
	}, SweepOptions{Workers: 1})
	byKey := map[[2]int]Fig6Point{}
	for _, p := range points {
		byKey[[2]int{p.Fmax, int(p.AuditPeriodSec)}] = p
	}
	// Audit bandwidth grows with f_max.
	if !(byKey[[2]int{0, 4}].TxAuditBps < byKey[[2]int{1, 4}].TxAuditBps &&
		byKey[[2]int{1, 4}].TxAuditBps < byKey[[2]int{2, 4}].TxAuditBps) {
		t.Errorf("audit bandwidth should grow with f_max: %+v", points)
	}
	// Application bandwidth does not depend on f_max.
	if byKey[[2]int{0, 4}].TxAppBps != byKey[[2]int{2, 4}].TxAppBps {
		t.Error("application bandwidth should not depend on f_max")
	}
	// Storage grows with the audit period, but not with f_max
	// (checkpoint/log contents are auditor-count independent, §5.2).
	if byKey[[2]int{1, 8}].StorageBytes <= byKey[[2]int{1, 4}].StorageBytes {
		t.Error("storage should grow with the audit period")
	}
	s4 := byKey[[2]int{2, 4}].StorageBytes / byKey[[2]int{0, 4}].StorageBytes
	if s4 > 1.2 {
		t.Errorf("storage should be ≈flat in f_max, ratio %.2f", s4)
	}
}

// TestFigureViolationPanics: a protected figure run whose invariant
// checker latches fails. Two robots cannot find f_max+1 = 4 auditors,
// so both lose their tokens and enter Safe Mode, and the Fig. 6 cell
// panics with the checker's verdict, which the sweep runner re-raises.
func TestFigureViolationPanics(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "invariant no-false-positive violated") {
			t.Errorf("recovered %q, want the checker's no-false-positive verdict", msg)
		}
	}()
	RunFig6Sweep(Fig6Config{N: 2, DurationSec: 20, Fmaxes: []int{3}, PeriodsSec: []float64{4}}, SweepOptions{Workers: 1})
}

func TestFig7Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	pts := RunFig7DensitySweep([]int{16}, []float64{4, 64}, 20, 1, SweepOptions{Workers: 1})
	dense, sparse := pts[0], pts[1]
	if dense.MeanPeers < sparse.MeanPeers {
		t.Errorf("denser flock should hear more peers: %+v", pts)
	}
	if dense.BandwidthBps < sparse.BandwidthBps {
		t.Errorf("denser flock should cost more bandwidth: %+v", pts)
	}

	scale := RunFig7ScaleSweep([]int{16, 36}, 20, 1, SweepOptions{Workers: 1})
	// Per-robot cost grows sub-linearly with N (levels off): a 2.25×
	// bigger flock must cost well under 2.25× per robot.
	if ratio := scale[1].BandwidthBps / scale[0].BandwidthBps; ratio > 1.8 {
		t.Errorf("per-robot cost should level off, grew %.2f×", ratio)
	}
}

func TestFig89Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cfg := DefaultAttackRun()
	cfg.N = 9
	cfg.DurationSec = 80

	baseline := cfg
	baseline.DisableAttack = true
	clean := RunAttack(baseline)
	if clean.AttackActiveSec != [2]float64{} {
		t.Error("no-attack run reports an attack window")
	}
	if len(clean.CorrectDisabled) != 0 || clean.Crashes != 0 {
		t.Errorf("clean run not clean: %+v", clean)
	}

	undefended := RunAttack(cfg)
	if undefended.AttackerKilled {
		t.Error("unprotected run cannot kill the attacker")
	}

	protected := cfg
	protected.Protected = true
	defended := RunAttack(protected)
	if !defended.AttackerKilled {
		t.Fatal("defended run did not kill the attacker")
	}
	// §5.2: "no correct robots were put into Safe Mode". The disabled
	// attacker parks in the grid's row-0, last-column corner, where no
	// correct robot flies into it.
	if len(defended.CorrectDisabled) != 0 || defended.Crashes != 0 {
		t.Errorf("defended run: correct robots disabled %v, crashes %d", defended.CorrectDisabled, defended.Crashes)
	}
	window := defended.AttackActiveSec[1] - defended.AttackActiveSec[0]
	if window <= 0 || window > 25 {
		t.Errorf("attack window %.1f s, want ≲ TVal+slack", window)
	}
	// Defense restores progress relative to the undefended run.
	if defended.MeanFinalDist >= undefended.MeanFinalDist {
		t.Errorf("defended %.1f m ≥ undefended %.1f m", defended.MeanFinalDist, undefended.MeanFinalDist)
	}
	// Trace metadata is coherent.
	if len(defended.SampleTimesSec) == 0 || len(defended.DistSeries) != 8 {
		t.Errorf("trace malformed: %d samples, %d series",
			len(defended.SampleTimesSec), len(defended.DistSeries))
	}
}

func TestFig2Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cfg := Fig2Config{N: 25, NumCompromised: 2, SpacingM: 15,
		GoalX: 220, GoalY: 220, DurationSec: 120, Seed: 2}
	clean := RunFig2(cfg, false)
	attacked := RunFig2(cfg, true)
	if clean.CorrectRobots != 25 || attacked.CorrectRobots != 23 {
		t.Errorf("roster wrong: %d / %d", clean.CorrectRobots, attacked.CorrectRobots)
	}
	if attacked.MeanDistToGoal <= clean.MeanDistToGoal {
		t.Errorf("attack should hold the flock out: attacked %.1f ≤ clean %.1f",
			attacked.MeanDistToGoal, clean.MeanDistToGoal)
	}
	// The paper's "no robots crashed" claim covers the obstacle-free
	// §5 arenas; the Fig. 2 obstacle course makes no such claim. Keep
	// collisions rare all the same.
	if clean.Crashes > 2 {
		t.Errorf("clean fig2 run crashed %d times", clean.Crashes)
	}
}

// TestFig2ObstacleRunPinned pins the bytes of the obstacle path: the
// 25-robot Fig. 2 course, clean and attacked, where one robot of each
// run ends inside an obstacle. Crash counts and a SHA-256 over every
// correct robot's final position bits must not move.
func TestFig2ObstacleRunPinned(t *testing.T) {
	cfg := Fig2Config{N: 25, NumCompromised: 2, SpacingM: 15,
		GoalX: 220, GoalY: 220, DurationSec: 120, Seed: 2}
	for _, tc := range []struct {
		attack  bool
		crashes int
		hash    string
	}{
		{false, 1, "0c5ee1f587675ac81c223cc37f27dc08dd95fbc75935029dcfbf3d06138a115d"},
		{true, 2, "824133289a8ee3e80fed8f0df8397b2e9c3d99eb995db54a5015cfa1ef651476"},
	} {
		res := RunFig2(cfg, tc.attack)
		ids := make([]wire.RobotID, 0, len(res.FinalPositions))
		for id := range res.FinalPositions {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		h := sha256.New()
		for _, id := range ids {
			p := res.FinalPositions[id]
			h.Write(binary.BigEndian.AppendUint64(nil, uint64(id)))
			h.Write(binary.BigEndian.AppendUint64(nil, math.Float64bits(p[0])))
			h.Write(binary.BigEndian.AppendUint64(nil, math.Float64bits(p[1])))
		}
		if got := hex.EncodeToString(h.Sum(nil)); res.Crashes != tc.crashes || got != tc.hash {
			t.Errorf("attack=%v: crashes %d, positions %s; want %d, %s",
				tc.attack, res.Crashes, got, tc.crashes, tc.hash)
		}
	}
}
