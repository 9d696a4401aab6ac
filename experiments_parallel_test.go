package roborebound

import (
	"fmt"
	"reflect"
	"testing"
)

// The parallel sweep runner must be observably identical to the
// serial loops it replaced: same results, same order, byte for byte.
// These tests run the same sweeps both ways and compare. They are
// also the -race harness for the experiment layer — `go test -race
// -run 'ParallelSweep|CellIsolation' .` exercises every sweep with
// concurrent cells (see the ci target in the Makefile).

// dump renders results byte-comparably; %#v prints float64 fields
// with the shortest round-trippable representation, so equal bytes
// means bit-equal values.
func dump(v any) string { return fmt.Sprintf("%#v", v) }

func assertIdentical(t *testing.T, name string, serial, parallel any) {
	t.Helper()
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("%s: parallel results differ from serial", name)
	}
	s, p := dump(serial), dump(parallel)
	if s != p {
		t.Errorf("%s: parallel output not byte-identical to serial:\nserial:   %s\nparallel: %s", name, s, p)
	}
}

func TestParallelSweepDeterminismFig6(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cfg := Fig6Config{N: 9, DurationSec: 16, Seed: 1,
		Fmaxes: []int{0, 2}, PeriodsSec: []float64{4}}
	serial := RunFig6Sweep(cfg, SweepOptions{Workers: 1})
	parallel := RunFig6Sweep(cfg, SweepOptions{Workers: 4})
	assertIdentical(t, "fig6", serial, parallel)
}

func TestParallelSweepDeterminismFig7(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	sizes, spacings := []int{9, 16}, []float64{4, 64}
	serial := RunFig7DensitySweep(sizes, spacings, 10, 1, SweepOptions{Workers: 1})
	parallel := RunFig7DensitySweep(sizes, spacings, 10, 1, SweepOptions{Workers: 4})
	assertIdentical(t, "fig7 density", serial, parallel)

	serialScale := RunFig7ScaleSweep([]int{9, 16}, 10, 1, SweepOptions{Workers: 1})
	parallelScale := RunFig7ScaleSweep([]int{9, 16}, 10, 1, SweepOptions{Workers: 4})
	assertIdentical(t, "fig7 scale", serialScale, parallelScale)
}

func TestParallelSweepDeterminismAttack(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cfg := DefaultAttackRun()
	cfg.N = 9
	cfg.DurationSec = 40
	base := cfg
	base.DisableAttack = true
	cfgs := []AttackRunConfig{base, cfg}

	var serial []AttackRunResult
	for _, c := range cfgs {
		serial = append(serial, RunAttack(c))
	}
	parallel := RunAttackSweep(cfgs, SweepOptions{Workers: 2})
	assertIdentical(t, "attack sweep", serial, parallel)
}

// TestSweepCellIsolation is the no-shared-state guard: the same
// (scenario, seed) cell run four times concurrently must produce four
// identical results, each equal to the cell run alone. Any state
// leaking between cells (a shared PRNG, World, or Medium) would skew
// at least one copy — and trip the race detector in the -race run.
func TestSweepCellIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	alone := RunFig7DensitySweep([]int{16}, []float64{8}, 10, 1, SweepOptions{Workers: 1})[0]
	copies := RunFig7DensitySweep([]int{16, 16, 16, 16}, []float64{8}, 10, 1,
		SweepOptions{Workers: 4})
	if len(copies) != 4 {
		t.Fatalf("got %d results, want 4", len(copies))
	}
	for i, c := range copies {
		if dump(c) != dump(alone) {
			t.Errorf("concurrent copy %d diverged from the solo run:\nsolo: %s\ncopy: %s",
				i, dump(alone), dump(c))
		}
	}
}

// TestSweepProgressReporting checks the per-cell progress contract:
// one callback per cell, Done advancing 1..Total, labels naming the
// cell, positive elapsed times.
func TestSweepProgressReporting(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	var events []SweepProgress
	RunFig7DensitySweep([]int{9}, []float64{4, 64}, 5, 1, SweepOptions{
		Workers:  2,
		Progress: func(p SweepProgress) { events = append(events, p) },
	})
	if len(events) != 2 {
		t.Fatalf("got %d progress events, want 2", len(events))
	}
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != 2 {
			t.Errorf("event %d: Done/Total = %d/%d, want %d/2", i, ev.Done, ev.Total, i+1)
		}
		if ev.Elapsed <= 0 {
			t.Errorf("event %d: non-positive elapsed %v", i, ev.Elapsed)
		}
		if ev.Label == "" {
			t.Errorf("event %d: empty label", i)
		}
	}
}
