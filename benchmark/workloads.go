package main

import (
	"fmt"

	rr "roborebound"
	"roborebound/internal/faultinject"
)

// workload is one named set of inputs. setup is everything before the
// first timed operation (it is also all the set-up probe runs);
// measure runs the untraced windows and fills the end-to-end metrics;
// traced runs the shorter traced pass and the layer drills and fills
// the per-layer metrics.
type workload interface {
	setup(r *run) error
	measure(r *run) error
	traced(r *run) error
	close()
}

// workloadInfo names a workload and records why it exists; the same
// text is in BENCHMARK.json.
type workloadInfo struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	new  func(seed uint64, quick bool) workload
}

var workloads = []workloadInfo{
	{
		Name: "flock_dense_n300",
		Why:  "300 robots at 20 m pitch, mixed faults, attacker at 20 s of 30: ~44 receives per robot-tick, so receive path, audit replay and allocation dominate",
		new: func(seed uint64, quick bool) workload {
			return &cellLoad{name: "flock_dense_n300", cfg: denseCell(seed, quick)}
		},
	},
	{
		Name: "swarm_sparse_n1000",
		Why:  "1000 robots at 64 m pitch, no faults, 8 s: ~5 receives per robot-tick, so per-robot fixed costs (construction, keys, radio/spatial delivery) dominate",
		new: func(seed uint64, quick bool) workload {
			return &cellLoad{name: "swarm_sparse_n1000", cfg: sparseCell(seed, quick)}
		},
	},
	{
		Name: "chaos_matrix_small",
		Why:  "3 controllers x 7 fault profiles x 8 seeds of 6-9 robots on 2 runner workers: set-up, allocation churn and cross-goroutine GC dominate; the correctness matrix",
		new:  func(seed uint64, quick bool) workload { return newMatrixLoad(seed, quick) },
	},
	{
		Name: "serve_tiny_jobs",
		Why:  "3-robot 1 s chaos jobs over loopback HTTP, closed loop then Poisson open loop: HTTP, codec, scheduler, event stream and artifact store dominate, the simulation does not",
		new:  func(seed uint64, quick bool) workload { return &serveLoad{seed: seed} },
	},
}

func findWorkload(name string) (workloadInfo, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadInfo{}, fmt.Errorf("unknown workload %q", name)
}

// The benchmark must run workloads on which no operation fails, and
// sizing it found cells where the current code latches
// no-false-positive (a correct robot disabled). Cell seeds are
// therefore drawn from pools that were run clean beforehand; the
// latching seeds are listed here as input for the adversarial-search
// work (ROADMAP item 5), not fixed and not hidden.
const (
	// denseSeedPool: flock_dense_n300 ran clean at cell seeds 1..48.
	denseSeedPool = 48
	// matrixSeedPool: the 21 (controller, profile) cells were run at
	// every seed 1..256.
	matrixSeedPool = 256
	// matrixSeeds is how many seeds one matrix pass spans.
	matrixSeeds = 8
)

// matrixLatchingSeeds are the seeds in 1..matrixSeedPool at which at
// least one (controller, profile) cell latches no-false-positive:
// 15 flocking/mixed, 24 patrol+warehouse/skew, 29 patrol+warehouse/mixed,
// 56 flocking/mixed, 80 patrol/mixed, 118 flocking/skew, 122 patrol/loss,
// 131 patrol/mixed, 137 patrol+warehouse/mixed, 139 patrol+warehouse/mixed,
// 162 patrol/mixed, 198 warehouse/loss, 203 warehouse/loss,
// 207 patrol+warehouse/mixed, 218 patrol+warehouse/skew, 229 flocking/loss,
// 255 patrol+warehouse/mixed.
var matrixLatchingSeeds = []uint64{15, 24, 29, 56, 80, 118, 122, 131, 137, 139, 162, 198, 203, 207, 218, 229, 255}

// poolSeed folds a run seed into 1..pool.
func poolSeed(seed uint64, pool uint64) uint64 {
	if seed == 0 {
		seed = 1
	}
	return (seed-1)%pool + 1
}

// matrixCellSeeds returns the matrixSeeds clean seeds at and after
// the run seed's place in the pool: seed 1 gives 1..8.
func matrixCellSeeds(seed uint64, n int) []uint64 {
	latching := make(map[uint64]bool, len(matrixLatchingSeeds))
	for _, s := range matrixLatchingSeeds {
		latching[s] = true
	}
	out := make([]uint64, 0, n)
	for s := poolSeed(seed, matrixSeedPool); len(out) < n; s = s%matrixSeedPool + 1 {
		if !latching[s] {
			out = append(out, s)
		}
	}
	return out
}

// denseCell is ROADMAP's evidence cell, extended past the attack so
// the bounded-time promise is checked.
func denseCell(seed uint64, quick bool) rr.ChaosConfig {
	cfg := rr.ChaosConfig{
		Controller:   "flocking",
		Profile:      faultinject.ProfileMixed,
		Seed:         poolSeed(seed, denseSeedPool),
		N:            300,
		SpacingM:     20,
		DurationSec:  30,
		SpatialIndex: true,
		AttackAtSec:  20,
	}
	if quick {
		cfg.N = 36
	}
	return cfg
}

// sparseCell is ROADMAP item 2's target cell (BenchmarkSwarm_Sim_Fast_N1000).
// Its default attacker would turn at 20 s, after the 8 s run ends.
func sparseCell(seed uint64, quick bool) rr.ChaosConfig {
	cfg := rr.ChaosConfig{
		Controller:   "flocking",
		Profile:      faultinject.ProfileNone,
		Seed:         seed,
		N:            1000,
		SpacingM:     64,
		DurationSec:  8,
		SpatialIndex: true,
	}
	if quick {
		cfg.N = 100
	}
	return cfg
}

// matrixCells is the paper's correctness matrix at the chaos plane's
// default sizes (9 flocking robots, 6 patrol or warehouse, 60 s).
func matrixCells(seed uint64, quick bool) []rr.ChaosConfig {
	n := matrixSeeds
	if quick {
		n = 1
	}
	return rr.ChaosMatrix(
		[]string{"flocking", "patrol", "warehouse"},
		faultinject.Profiles(),
		matrixCellSeeds(seed, n),
		rr.ChaosConfig{SpatialIndex: true})
}

// cellTicks is the length of one cell in ticks, the facade's 60 s
// default applied.
func cellTicks(cfg rr.ChaosConfig) int {
	d := cfg.DurationSec
	if d == 0 {
		d = 60
	}
	return int(d * ticksPerSecond)
}

// robotTicks is the simulated work of one cell, the facade's default
// swarm sizes applied.
func robotTicks(cfg rr.ChaosConfig) float64 {
	n := cfg.N
	if n == 0 {
		n = 6
		if cfg.Controller == "flocking" || cfg.Controller == "" {
			n = 9
		}
	}
	return float64(n * cellTicks(cfg))
}
