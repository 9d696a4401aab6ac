package sim

import (
	"math"
	"testing"

	"roborebound/internal/geom"
	"roborebound/internal/prng"
	"roborebound/internal/wire"
)

// Differential tests for the world's grid-indexed crash detection: it
// must produce bit-identical crash events and body state evolution to
// the brute-force all-pairs scan, including on the adversarial
// geometry the index could plausibly get wrong — bodies at identical
// positions, pairs at exactly the crash radius, and contact exactly on
// grid cell boundaries. The brute-force scan is the oracle below: the
// loops production ran before the grid became its only path.

// bruteWorld is the reference world. Its embedded World is built with
// crash detection off (no crash radius, no obstacles), so World.Step
// only integrates; detectCrashes then runs the all-pairs and
// every-obstacle loops, verbatim as they stood in World, against the
// real radius and obstacle set.
type bruteWorld struct {
	*World
	crashRadius float64
	obstacles   []geom.SphereObstacle
}

func newBruteWorld(cfg WorldConfig) *bruteWorld {
	b := &bruteWorld{crashRadius: cfg.CrashRadius, obstacles: cfg.Obstacles}
	cfg.CrashRadius, cfg.Obstacles = 0, nil
	b.World = NewWorld(cfg)
	return b
}

func (w *bruteWorld) Step(now wire.Tick) {
	w.World.Step(now)
	w.detectCrashes(now)
}

func (w *bruteWorld) detectCrashes(now wire.Tick) {
	for _, b := range w.bodies {
		if b.Crashed {
			continue
		}
		for _, o := range w.obstacles {
			if o.Contains(b.Pos) {
				w.crash(now, b, b)
				break
			}
		}
	}
	if w.crashRadius <= 0 {
		return
	}
	r2 := w.crashRadius * w.crashRadius
	for i, a := range w.bodies {
		for _, b := range w.bodies[i+1:] {
			if a.Crashed && b.Crashed {
				continue
			}
			if a.Pos.DistSq(b.Pos) < r2 {
				w.crash(now, a, b)
			}
		}
	}
}

func assertWorldsEqual(t *testing.T, step int, brute *bruteWorld, indexed *World) {
	t.Helper()
	bc, ic := brute.Crashes(), indexed.Crashes()
	if len(bc) != len(ic) {
		t.Fatalf("step %d: brute has %d crash events, indexed %d\nbrute:   %+v\nindexed: %+v",
			step, len(bc), len(ic), bc, ic)
	}
	for i := range bc {
		if bc[i] != ic[i] {
			t.Fatalf("step %d: crash event %d diverges: brute %+v, indexed %+v", step, i, bc[i], ic[i])
		}
	}
	bb, ib := brute.Bodies(), indexed.Bodies()
	if len(bb) != len(ib) {
		t.Fatalf("step %d: body count diverges", step)
	}
	for i := range bb {
		a, b := bb[i], ib[i]
		if a.ID != b.ID || a.Crashed != b.Crashed || a.Disabled != b.Disabled ||
			math.Float64bits(a.Pos.X) != math.Float64bits(b.Pos.X) ||
			math.Float64bits(a.Pos.Y) != math.Float64bits(b.Pos.Y) ||
			math.Float64bits(a.Vel.X) != math.Float64bits(b.Vel.X) ||
			math.Float64bits(a.Vel.Y) != math.Float64bits(b.Vel.Y) {
			t.Fatalf("step %d: body %d diverges:\nbrute:   %+v\nindexed: %+v", step, a.ID, a, b)
		}
	}
}

// newWorldPair builds the same scenario as the oracle and as World.
func newWorldPair(cfg WorldConfig, setup func(*World)) (brute *bruteWorld, indexed *World) {
	brute, indexed = newBruteWorld(cfg), NewWorld(cfg)
	setup(brute.World)
	setup(indexed)
	return brute, indexed
}

func stepPair(t *testing.T, brute *bruteWorld, indexed *World, steps int) {
	t.Helper()
	for i := 0; i < steps; i++ {
		brute.Step(wire.Tick(i))
		indexed.Step(wire.Tick(i))
		assertWorldsEqual(t, i, brute, indexed)
	}
}

// TestCrashDetectionIndexedMatchesBruteRandom packs a dense random
// swarm (guaranteeing many collisions, including chains where the
// `a.Crashed && b.Crashed` skip matters) among a field of sphere
// obstacles, and steps both worlds in lockstep, comparing
// crash sequences and full body state bit-for-bit each tick.
func TestCrashDetectionIndexedMatchesBruteRandom(t *testing.T) {
	iters := 20
	if testing.Short() {
		iters = 5
	}
	for iter := 0; iter < iters; iter++ {
		rng := prng.New(0xC0DE + uint64(iter))
		cfg := DefaultWorldConfig() // crash radius 0.5 → grid cell 2
		cfg.Obstacles = []geom.SphereObstacle{
			{C: geom.V(0, 0), R: 1.5},
			{C: geom.V(6, 6), R: 0.75},
			{C: geom.V(-8, 4), R: 2.5},
			{C: geom.V(2, -10), R: 0}, // degenerate: contains nothing
		}
		n := 60
		seed := rng.Uint64()
		brute, indexed := newWorldPair(cfg, func(w *World) {
			r := prng.New(seed) // same placement stream for both worlds
			for i := 0; i < n; i++ {
				var pos geom.Vec2
				switch r.Intn(10) {
				case 0: // exact grid-cell boundaries (cell = 4·CrashRadius = 2)
					pos = geom.V(float64(r.Intn(11)-5)*2, float64(r.Intn(11)-5)*2)
				case 1: // stacked exactly on an earlier robot's start
					pos = geom.V(4, 4)
				default:
					pos = geom.V(r.Range(-20, 20), r.Range(-20, 20))
				}
				b := w.AddBody(wire.RobotID(i+1), pos)
				b.Vel = geom.V(r.Range(-4, 4), r.Range(-4, 4))
				b.Acc = geom.V(r.Range(-5, 5), r.Range(-5, 5))
			}
			// One robot with a garbage (NaN) position: it must be
			// uncrashable (NaN distances fail `< r2`).
			w.AddBody(wire.RobotID(n+1), geom.V(math.NaN(), math.NaN()))
		})
		stepPair(t, brute, indexed, 40)
		if len(brute.Crashes()) == 0 {
			t.Fatalf("iter %d: scenario produced no crashes — test is vacuous", iter)
		}
	}
}

// TestIdenticalPositionsBothCrash: two bodies at exactly the same
// point have distance 0 < r², so both must crash, in one event.
func TestIdenticalPositionsBothCrash(t *testing.T) {
	brute, indexed := newWorldPair(DefaultWorldConfig(), func(w *World) {
		w.AddBody(1, geom.V(3, -2))
		w.AddBody(2, geom.V(3, -2))
		w.AddBody(3, geom.V(50, 50)) // bystander
	})
	stepPair(t, brute, indexed, 1)
	ev := brute.Crashes()
	if len(ev) != 1 || ev[0].A != 1 || ev[0].B != 2 {
		t.Fatalf("crash events %+v, want exactly one (1,2)", ev)
	}
	if brute.Body(3).Crashed {
		t.Fatal("bystander crashed")
	}
}

// TestExactCrashRadiusIsNotACrash: the predicate is strictly `<`, so
// bodies at exactly CrashRadius apart must NOT crash — and one ulp
// closer must. One body sits exactly on a grid cell corner (the
// origin).
func TestExactCrashRadiusIsNotACrash(t *testing.T) {
	cfg := DefaultWorldConfig()
	r := cfg.CrashRadius

	brute, indexed := newWorldPair(cfg, func(w *World) {
		w.AddBody(1, geom.V(0, 0)) // origin is a grid cell corner
		w.AddBody(2, geom.V(r, 0))
	})
	stepPair(t, brute, indexed, 1)
	if len(brute.Crashes()) != 0 {
		t.Fatalf("bodies exactly CrashRadius apart crashed: %+v", brute.Crashes())
	}

	brute, indexed = newWorldPair(cfg, func(w *World) {
		w.AddBody(1, geom.V(0, 0))
		w.AddBody(2, geom.V(math.Nextafter(r, 0), 0))
	})
	stepPair(t, brute, indexed, 1)
	if len(brute.Crashes()) != 1 {
		t.Fatalf("bodies one ulp inside CrashRadius did not crash: %+v", brute.Crashes())
	}
}

// TestObstacleContactAtCellBoundaries: containment is strict, so a
// body exactly on the sphere surface is outside and one ulp inside it
// crashes, whichever axis it sits on; a NaN body never crashes.
func TestObstacleContactAtCellBoundaries(t *testing.T) {
	cfg := DefaultWorldConfig()
	cfg.CrashRadius = 0 // isolate obstacle detection
	cfg.Obstacles = []geom.SphereObstacle{{C: geom.V(10, 10), R: 2}}
	cases := []struct {
		name  string
		pos   geom.Vec2
		crash bool
	}{
		{"exactly on surface", geom.V(12, 10), false},
		{"ulp inside surface", geom.V(math.Nextafter(12, 10), 10), true},
		{"ulp outside surface", geom.V(math.Nextafter(12, 13), 10), false},
		{"surface on cell line", geom.V(8, 10), false},
		{"inside at cell line", geom.V(math.Nextafter(8, 10), 10), true},
		{"center", geom.V(10, 10), true},
		{"cell corner far", geom.V(4, 4), false},
		{"NaN body", geom.V(math.NaN(), 10), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWorld(cfg)
			w.AddBody(1, tc.pos)
			w.Step(0)
			if got := w.Body(1).Crashed; got != tc.crash {
				t.Fatalf("crashed=%v, want %v", got, tc.crash)
			}
		})
	}
}

// TestDegenerateCrashRadius pins the radii no cell size fits: zero
// (detection off), +Inf (every pair of bodies a finite distance apart
// collides, in the all-pairs scan's order) and NaN (`< NaN` is never
// true), each with a NaN-position body and a pair too far apart for a
// finite squared distance in the mix.
func TestDegenerateCrashRadius(t *testing.T) {
	cases := []struct {
		name    string
		radius  float64
		crashes int
	}{
		{"zero", 0, 0},
		{"NaN", math.NaN(), 0},
		// (1,2) (1,3) (1,5): body 4 is at NaN, body 6 at an overflowing
		// distance from everyone, and once 1, 2, 3 and 5 have crashed
		// every later pair is skipped or out of reach.
		{"+Inf", math.Inf(1), 3},
		{"overflowing 4r", math.MaxFloat64 / 3, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultWorldConfig()
			cfg.CrashRadius = tc.radius
			brute, indexed := newWorldPair(cfg, func(w *World) {
				w.AddBody(1, geom.V(0, 0)).Vel = geom.V(1, 0)
				w.AddBody(2, geom.V(100, 0))
				w.AddBody(3, geom.V(-7, 3e9))
				w.AddBody(4, geom.V(math.NaN(), 1))
				w.AddBody(5, geom.V(0.25, 0))
				w.AddBody(6, geom.V(1e200, -1e200))
			})
			stepPair(t, brute, indexed, 3)
			if got := len(indexed.Crashes()); got != tc.crashes {
				t.Fatalf("%d crash events %+v, want %d", got, indexed.Crashes(), tc.crashes)
			}
		})
	}
}
