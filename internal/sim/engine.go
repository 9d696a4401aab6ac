package sim

import (
	"sort"

	"roborebound/internal/obs/perf"
	"roborebound/internal/radio"
	"roborebound/internal/wire"
)

// Actor is anything that lives on the tick loop — normally a robot
// (c-node + trusted nodes), but attacks and instrumentation probes
// implement it too.
type Actor interface {
	// ActorID identifies the actor; it doubles as the physical radio
	// transmitter identity.
	ActorID() wire.RobotID
	// Deliver hands the actor one received frame. Called before Tick
	// within the same engine tick, in deterministic order.
	Deliver(f wire.Frame)
	// Tick advances the actor to local time now.
	Tick(now wire.Tick)
}

// Engine owns the tick loop. Per tick, in fixed order:
//
//  1. frames queued last tick are delivered (by receiver ID, then
//     queue order),
//  2. every actor ticks (in ID order),
//  3. physics integrates and crash detection runs,
//  4. per-tick observers fire.
//
// The one-tick delivery latency models the radio round trip; at the
// paper's 4 ticks/s it is 0.25 s, well under the 1.5 s state-broadcast
// period the controller is designed around.
type Engine struct {
	World  *World
	Medium *radio.Medium

	actors []Actor // sorted by ID
	ids    []wire.RobotID
	byID   map[wire.RobotID]Actor
	now    wire.Tick //rebound:clock engine

	observers []func(now wire.Tick)

	// perf attributes wall-clock time to pipeline phases (nil =
	// disabled). Observation-only: the perf differential tests pin that
	// attaching it changes no simulation output.
	perf *perf.PhaseTimer
}

// NewEngine wires a world and a medium together.
func NewEngine(world *World, medium *radio.Medium) *Engine {
	return &Engine{World: world, Medium: medium, byID: make(map[wire.RobotID]Actor)}
}

// AddActor registers an actor. Panics on duplicate IDs.
func (e *Engine) AddActor(a Actor) {
	id := a.ActorID()
	for _, existing := range e.ids {
		if existing == id {
			panic("sim: duplicate actor ID")
		}
	}
	i := sort.Search(len(e.actors), func(i int) bool { return e.actors[i].ActorID() >= id })
	e.actors = append(e.actors, nil)
	copy(e.actors[i+1:], e.actors[i:])
	e.actors[i] = a
	e.ids = append(e.ids, 0)
	copy(e.ids[i+1:], e.ids[i:])
	e.ids[i] = id
	e.byID[id] = a
}

// Observe registers a per-tick callback, invoked after physics.
func (e *Engine) Observe(f func(now wire.Tick)) {
	e.observers = append(e.observers, f)
}

// Now returns the current tick on the engine (global simulation)
// clock. Protocol timestamps live on each robot's local trusted
// clock; never compare the two directly.
//
//rebound:clock return=engine
func (e *Engine) Now() wire.Tick { return e.now }

// IDs returns all actor IDs in ascending order (do not mutate).
func (e *Engine) IDs() []wire.RobotID { return e.ids }

// SetPerf attaches a wall-clock phase timer to the engine and, for
// the phases they own, to the world (spatial-index builds inside
// physics) and the medium (spatial-index builds inside Deliver). Nil
// detaches everywhere.
func (e *Engine) SetPerf(t *perf.PhaseTimer) {
	e.perf = t
	e.World.SetPerf(t)
	e.Medium.SetPerf(t)
}

// StepOnce advances the simulation by one tick.
func (e *Engine) StepOnce() {
	s := e.perf.Start()
	deliveries := e.Medium.Deliver(e.ids)
	for _, d := range deliveries {
		if a := e.byID[d.To]; a != nil {
			a.Deliver(d.Frame)
		}
	}
	// Every delivery has been consumed. The slice is the Medium's, kept
	// for the next round; cleared, it stops holding this tick's payloads
	// (audit requests above all) while the actors build the next ones.
	clear(deliveries)
	e.perf.End(perf.PhaseRadioDeliver, s)
	s = e.perf.Start()
	for _, a := range e.actors {
		a.Tick(e.now)
	}
	e.perf.End(perf.PhaseActorTick, s)
	s = e.perf.Start()
	e.World.Step(e.now)
	e.perf.End(perf.PhasePhysics, s)
	s = e.perf.Start()
	for _, f := range e.observers {
		f(e.now)
	}
	e.perf.End(perf.PhaseObservers, s)
	e.now++
}

// Run advances the simulation for the given number of ticks.
func (e *Engine) Run(ticks wire.Tick) {
	for i := wire.Tick(0); i < ticks; i++ {
		e.StepOnce()
	}
}
