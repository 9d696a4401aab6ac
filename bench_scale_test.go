package roborebound

// Swarm-scale hot-path benchmarks: radio delivery and collision
// detection at 100–500 robots, and one whole 300-robot cell
// (`make bench-all`). The brute-force loops these were once paired
// against are test oracles now (internal/radio and internal/sim
// spatial_test.go); the last paired reading is EXPERIMENTS.md
// "PR 24".

import (
	"fmt"
	"testing"

	"roborebound/internal/faultinject"
	"roborebound/internal/geom"
	"roborebound/internal/radio"
	"roborebound/internal/sim"
	"roborebound/internal/wire"
)

// benchScaleDeliver measures one radio round at swarm scale: every
// robot broadcasts a state-sized frame, then Deliver fans out. The
// layout is the paper's 64 m grid, where a 500-robot swarm spans
// ~1.4 km and each robot decodes only its ~8 nearest neighbors — the
// regime the grid exists for.
func benchScaleDeliver(b *testing.B, n int) {
	positions := GridPositions(n, 64, geom.V(0, 0))
	pos := func(id wire.RobotID) (geom.Vec2, bool) {
		i := int(id) - 1
		if i < 0 || i >= len(positions) {
			return geom.Vec2{}, false
		}
		return positions[i], true
	}
	m := radio.NewMedium(radio.DefaultParams(), pos, 1)
	ids := make([]wire.RobotID, n)
	for i := range ids {
		ids[i] = wire.RobotID(i + 1)
	}
	payload := make([]byte, wire.StateMsgSize)
	var delivered int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, id := range ids {
			m.Send(id, wire.Frame{Src: id, Dst: wire.Broadcast, Payload: payload})
		}
		delivered += len(m.Deliver(ids))
	}
	b.ReportMetric(float64(delivered)/float64(b.N), "deliveries/round")
}

func BenchmarkScale_Deliver_N100(b *testing.B) { benchScaleDeliver(b, 100) }
func BenchmarkScale_Deliver_N500(b *testing.B) { benchScaleDeliver(b, 500) }

// benchScaleCollision measures one physics tick at swarm scale. With
// static, well-separated bodies the integration loop is O(n) and crash
// detection dominates: a grid rebuild and a handful of neighbors per
// body.
func benchScaleCollision(b *testing.B, n int) {
	w := sim.NewWorld(sim.DefaultWorldConfig())
	for i, p := range GridPositions(n, 64, geom.V(0, 0)) {
		w.AddBody(wire.RobotID(i+1), p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step(wire.Tick(i))
	}
	if len(w.Crashes()) != 0 {
		b.Fatal("benchmark layout should be crash-free")
	}
}

func BenchmarkScale_Collision_N100(b *testing.B) { benchScaleCollision(b, 100) }
func BenchmarkScale_Collision_N500(b *testing.B) { benchScaleCollision(b, 500) }

// BenchmarkScale_Sim_N300 runs a whole protected chaos cell at swarm
// scale: the protocol engine dilutes the two loops above, and that
// context belongs next to their numbers.
func BenchmarkScale_Sim_N300(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := RunChaos(ChaosConfig{
			Controller:  "flocking",
			Profile:     faultinject.ProfileNone,
			Seed:        1,
			N:           300,
			DurationSec: 8,
			SpacingM:    64,
		})
		if res.Violation != nil {
			b.Fatal(res.Violation)
		}
	}
}

// TestScaleBenchLayoutHasNeighbors guards the benchmark setup itself:
// at 64 m spacing every robot must decode at least its grid neighbors,
// or the Deliver benchmarks would be measuring silence.
func TestScaleBenchLayoutHasNeighbors(t *testing.T) {
	params := radio.DefaultParams()
	positions := GridPositions(100, 64, geom.V(0, 0))
	r := params.RangeM()
	if positions[1].Sub(positions[0]).Norm() >= r {
		t.Fatalf("grid pitch %.0fm exceeds decode range %.1fm", 64.0, r)
	}
	if fmt.Sprintf("%.0f", r) == "0" {
		t.Fatal("degenerate decode range")
	}
}
