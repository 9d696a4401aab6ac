package roborebound

import (
	"testing"

	"roborebound/internal/geom"
)

// TestProtectedFlockHealthy is the core liveness check: a small
// protected flock with no adversary must keep every robot alive
// (audits keep succeeding, tokens stay fresh) while the flock moves
// toward its goal. This exercises the entire stack end to end:
// sensors → s-node chains → controller → a-node chains → radio →
// audit requests → deterministic replay → tokens → log truncation.
func TestProtectedFlockHealthy(t *testing.T) {
	goal := geom.V(120, 120)
	s := FlockScenario{
		N:         9,
		Spacing:   4,
		Goal:      goal,
		Protected: true,
		Fmax:      2,
		Seed:      7,
	}.Build()
	dt := s.TrackDistances(goal)
	s.RunSeconds(60)

	if bad := s.CorrectInSafeMode(); len(bad) != 0 {
		for _, id := range bad {
			eng := s.Robot(id).Engine()
			t.Logf("robot %d stats: %+v, tokens=%d", id, eng.Stats(), s.Robot(id).ANode().ValidTokenCount())
		}
		t.Fatalf("correct robots in safe mode: %v", bad)
	}
	if crashes := s.World.Crashes(); len(crashes) != 0 {
		t.Fatalf("crashes: %+v", crashes)
	}
	// Audits must actually be happening and succeeding.
	for _, id := range s.IDs() {
		st := s.Robot(id).Engine().Stats()
		if st.RoundsCovered == 0 {
			t.Errorf("robot %d never covered an audit round: %+v", id, st)
		}
		if st.AuditsServed == 0 {
			t.Errorf("robot %d never served an audit: %+v", id, st)
		}
	}
	// The flock must make progress toward the goal.
	start := geom.V(4, 4).Dist(goal) // grid center-ish start distance
	mean := dt.MeanFinalDistance(s.IDs())
	if mean >= start {
		t.Errorf("no progress toward goal: mean final distance %.1f (start ≈ %.1f)", mean, start)
	}
	t.Logf("mean final distance: %.1f m (start ≈ %.1f m)", mean, start)
}

// TestUnprotectedBaselineRuns checks the baseline path: same mission,
// no RoboRebound. No trusted nodes, no audit traffic.
func TestUnprotectedBaselineRuns(t *testing.T) {
	goal := geom.V(120, 120)
	s := FlockScenario{
		N:       9,
		Spacing: 4,
		Goal:    goal,
		Seed:    7,
	}.Build()
	s.RunSeconds(30)
	for _, row := range s.BandwidthReport() {
		if row.TxAudit != 0 || row.RxAudit != 0 {
			t.Errorf("baseline robot %d carried audit traffic: %+v", row.ID, row)
		}
		if row.TxApp == 0 {
			t.Errorf("baseline robot %d sent nothing", row.ID)
		}
	}
	if len(s.StorageReport()) != 0 {
		t.Error("baseline robots should have no audit-log storage")
	}
}

// TestDeterministicRuns: identical scenario + seed ⇒ identical world
// state, byte counters, and protocol stats.
func TestDeterministicRuns(t *testing.T) {
	build := func() *Sim {
		return FlockScenario{
			N: 9, Spacing: 4, Goal: geom.V(120, 120),
			Protected: true, Fmax: 2, Seed: 99, JitterM: 1,
		}.Build()
	}
	a, b := build(), build()
	a.RunSeconds(30)
	b.RunSeconds(30)
	for _, id := range a.IDs() {
		pa, _ := a.World.Position(id)
		pb, _ := b.World.Position(id)
		if pa != pb {
			t.Fatalf("robot %d diverged: %v vs %v", id, pa, pb)
		}
		ca, cb := a.Medium.Counters(id), b.Medium.Counters(id)
		if *ca != *cb {
			t.Fatalf("robot %d counters diverged: %+v vs %+v", id, ca, cb)
		}
		if a.Robot(id).Engine().Stats() != b.Robot(id).Engine().Stats() {
			t.Fatalf("robot %d stats diverged", id)
		}
	}
}

// TestLargeProtectedFlockSoak is the scale check behind the Fig. 7
// claims: 100 protected robots, 50 simulated seconds, full audit
// machinery — zero false positives, zero crashes, every robot audited.
func TestLargeProtectedFlockSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	s := FlockScenario{
		N:         100,
		Spacing:   4,
		Goal:      geom.V(500, 500),
		Protected: true,
		Seed:      17,
	}.Build()
	s.RunSeconds(50)

	if bad := s.CorrectInSafeMode(); len(bad) != 0 {
		t.Fatalf("correct robots disabled at scale: %v", bad)
	}
	if crashes := s.World.Crashes(); len(crashes) != 0 {
		t.Fatalf("crashes at scale: %+v", crashes)
	}
	for _, id := range s.IDs() {
		st := s.Robot(id).Engine().Stats()
		if st.RoundsCovered == 0 {
			t.Errorf("robot %d never covered a round", id)
		}
	}
	// §5.2's storage claim: bounded, a few kB per robot.
	if mean := s.MeanStorage(); mean > 64*1024 {
		t.Errorf("mean storage %.0f B; truncation failing at scale?", mean)
	}
}
