package roborebound_test

import (
	"fmt"

	rr "roborebound"
	"roborebound/internal/attack"
	"roborebound/internal/control"
	"roborebound/internal/core"
	"roborebound/internal/geom"
	"roborebound/internal/wire"
)

// Testable godoc examples. Simulations are deterministic per seed, so
// their output is stable enough to pin.

// Example demonstrates the smallest end-to-end use of the public API:
// build a protected 3×3 flock (f_max = 2, so every robot needs three
// fresh audit tokens to stay alive), fly it toward a goal for a
// minute, and read each robot's protocol counters.
func Example() {
	sim := rr.FlockScenario{
		N:         9,
		Spacing:   4,
		Goal:      geom.V(120, 120),
		Protected: true,
		Fmax:      2,
		Seed:      1,
	}.Build()
	sim.RunSeconds(60)

	fmt.Printf("%-6s %-7s %-7s %s\n", "robot", "tokens", "rounds", "audits served")
	for _, id := range sim.IDs() {
		r := sim.Robot(id)
		st := r.Engine().Stats()
		fmt.Printf("%-6d %-7d %-7d %d\n", id, r.ANode().ValidTokenCount(), st.RoundsCovered, st.AuditsServed)
	}
	fmt.Println("correct robots disabled:", sim.CorrectInSafeMode())
	fmt.Println("crashes:", len(sim.World.Crashes()))
	// Output:
	// robot  tokens  rounds  audits served
	// 1      6       15      45
	// 2      6       15      43
	// 3      6       15      43
	// 4      6       15      42
	// 5      6       15      45
	// 6      6       15      48
	// 7      6       15      47
	// 8      6       15      47
	// 9      8       15      45
	// correct robots disabled: []
	// crashes: 0
}

// ExampleFlockScenario_attack shows the paper's §5.3 experiment in
// miniature: a spoofing attacker is audited into Safe Mode while the
// correct robots stay alive.
func ExampleFlockScenario_attack() {
	sim := rr.FlockScenario{
		N:         9,
		Spacing:   20,
		Goal:      geom.V(220, 220),
		Protected: true,
		Fmax:      2,
		Seed:      11,
		Compromised: []rr.CompromisedSpec{{
			Index:        2,
			AtSeconds:    15,
			Strategy:     rr.SpoofStrategy(150, 2, 1),
			KeepProtocol: true,
		}},
	}.Build()
	sim.RunSeconds(45)

	comp := sim.Compromised(3)
	fmt.Println("attacker disabled:", comp.InSafeMode())
	fmt.Println("correct robots disabled:", len(sim.CorrectInSafeMode()))
	// Output:
	// attacker disabled: true
	// correct robots disabled: 0
}

// ExampleGridPositions shows the square-grid placement used throughout
// the paper's evaluation.
func ExampleGridPositions() {
	for _, p := range rr.GridPositions(4, 10, geom.V(0, 0)) {
		fmt.Printf("(%.0f,%.0f) ", p.X, p.Y)
	}
	fmt.Println()
	// Output:
	// (0,0) (10,0) (0,10) (10,10)
}

// ExampleTable1 regenerates the paper's worst-case a-node load model
// with its own measured per-op costs.
func ExampleTable1() {
	rows := rr.Table1(rr.PaperRateConfig(), rr.PaperCostModel())
	total := rows[len(rows)-1]
	fmt.Printf("a-node worst-case load: %.1f%% (paper: 17.28%%)\n", total.LoadPct)
	// Output:
	// a-node worst-case load: 18.0% (paper: 17.28%)
}

// The same trusted nodes, logging and replay protect any deterministic
// controller (§2.1, §3.9). The next three examples run the paper's
// other application classes under the unmodified defense.

// ExampleNewSim_patrol is perimeter defense: six robots patrol an
// eight-waypoint perimeter, each on its own concentric ring so a
// disabled robot never blocks the others. Robot 6 goes silent at
// t = 30 s and is audited out within the BTI window.
func ExampleNewSim_patrol() {
	route := []geom.Vec2{
		geom.V(0, 0), geom.V(40, 0), geom.V(80, 0), geom.V(80, 40),
		geom.V(80, 80), geom.V(40, 80), geom.V(0, 80), geom.V(0, 40),
	}
	params := control.DefaultPatrolParams(rr.TicksPerSecond, route)
	params.RingGapM = 3
	factory := control.PatrolFactory{Params: params}

	cc := core.DefaultConfig(rr.TicksPerSecond)
	cc.Fmax = 2 // every patroller needs 3 fresh tokens
	sim := rr.NewSim(rr.SimConfig{Seed: 5, Core: &cc})
	// Robot id starts at waypoint id mod 8, so the patrollers hold
	// distinct slots.
	for id := wire.RobotID(1); id <= 5; id++ {
		sim.AddRobot(id, route[int(id)%len(route)], factory, true)
	}
	sim.AddCompromised(6, route[6], factory, true, sim.Tick(30), attack.Silent{}, false)
	sim.RunSeconds(70)

	for _, ev := range sim.SafeModeEvents() {
		fmt.Printf("robot %d: Safe Mode at t=%.2f s\n", ev.ID, sim.Seconds(ev.Tick))
	}
	fmt.Println("correct robots disabled:", sim.CorrectInSafeMode())
	fmt.Println("crashes:", len(sim.World.Crashes()))
	// Output:
	// robot 6: Safe Mode at t=39.50 s
	// correct robots disabled: []
	// crashes: 0
}

// ExampleNewSim_explore is resilient exploration: four robots survey
// an 80 m × 40 m area in strips. Robot 4 abandons the mission at
// t = 20 s; once RoboRebound disables it, a correct robot
// deterministically adopts the orphaned strip and the survey
// completes.
func ExampleNewSim_explore() {
	factory := control.ExploreFactory{Params: control.DefaultExploreParams(rr.TicksPerSecond, 0, 0, 80, 40, 4)}
	cc := core.DefaultConfig(rr.TicksPerSecond)
	cc.Fmax = 1 // each robot needs 2 fresh tokens
	sim := rr.NewSim(rr.SimConfig{Seed: 12, Core: &cc})
	for id := wire.RobotID(1); id <= 3; id++ {
		sim.AddRobot(id, geom.V(float64(id)*20-10, -5), factory, true)
	}
	comp := sim.AddCompromised(4, geom.V(70, -5), factory, true, sim.Tick(20), attack.Silent{}, false)
	sim.RunSeconds(400)

	var survey uint64
	for _, id := range sim.CorrectIDs() {
		e := sim.Robot(id).Controller().(*control.Explore)
		_, idle := e.Covering()
		fmt.Printf("robot %d: strips %04b, done %v\n", id, e.CoveredMask(), idle)
		survey |= e.CoveredMask()
	}
	at, _ := comp.FirstMisbehaviorAt()
	fmt.Printf("robot 4: misbehaved at t=%.2f s, Safe Mode at t=%.2f s\n",
		sim.Seconds(at), sim.Seconds(comp.SafeModeAt()))
	fmt.Printf("strips surveyed by correct robots: %04b\n", survey)
	fmt.Println("correct robots disabled:", sim.CorrectInSafeMode())
	fmt.Println("crashes:", len(sim.World.Crashes()))
	// Output:
	// robot 1: strips 1001, done true
	// robot 2: strips 0010, done true
	// robot 3: strips 0100, done true
	// robot 4: misbehaved at t=20.00 s, Safe Mode at t=27.00 s
	// strips surveyed by correct robots: 1111
	// correct robots disabled: []
	// crashes: 0
}

// ExampleNewSim_warehouse is the §2.3 logistics use case: six shuttles
// cycle between pickup and dropoff stations, each on its own loop,
// yielding to lower IDs. At t = 60 s shuttle 1 starts claiming it is
// parked across three aisles, and everyone yields to the phantom.
// Undefended, the lie holds for the rest of the shift; with
// RoboRebound the liar is audited out and deliveries resume.
func ExampleNewSim_warehouse() {
	var pickups, dropoffs []geom.Vec2
	for i := 0; i < 6; i++ {
		pickups = append(pickups, geom.V(0, 6*float64(i)))
		dropoffs = append(dropoffs, geom.V(60, 6*float64(i)))
	}
	factory := control.WarehouseFactory{Params: control.DefaultWarehouseParams(rr.TicksPerSecond, pickups, dropoffs)}

	for _, protected := range []bool{false, true} {
		cc := core.DefaultConfig(rr.TicksPerSecond)
		cc.Fmax = 2
		sim := rr.NewSim(rr.SimConfig{Seed: 8, Core: &cc})
		for i := 1; i < 6; i++ {
			sim.AddRobot(wire.RobotID(i+1), pickups[i].Add(geom.V(2, 0)), factory, protected)
		}
		// The liar abandons its real work entirely (keepProtocol
		// false): its truthful broadcasts would otherwise flicker over
		// the lie.
		liar := sim.AddCompromised(1, pickups[0].Add(geom.V(2, 0)), factory, protected,
			sim.Tick(60), attack.Blocker{X: 30, Y: 11, Period: 2}, false)
		sim.RunSeconds(450)

		trips := 0
		for _, id := range sim.CorrectIDs() {
			trips += sim.Robot(id).Controller().(*control.Warehouse).Trips()
		}
		at, _ := liar.FirstMisbehaviorAt()
		stopped := "never stopped"
		if liar.InSafeMode() {
			stopped = fmt.Sprintf("Safe Mode %.2f s after its first lie", sim.Seconds(liar.SafeModeAt()-at))
		}
		fmt.Printf("protected=%v: %d deliveries in 450 s; liar %s\n", protected, trips, stopped)
	}
	// Output:
	// protected=false: 25 deliveries in 450 s; liar never stopped
	// protected=true: 37 deliveries in 450 s; liar Safe Mode 6.25 s after its first lie
}
