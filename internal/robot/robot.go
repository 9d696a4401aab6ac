// Package robot assembles one complete robot: the physics body, the
// trusted s-node and a-node wired per Fig. 3, and the c-node — either
// the RoboRebound protocol engine (protected) or a bare controller
// (the unprotected baseline the paper compares against, §4).
package robot

import (
	"roborebound/internal/control"
	"roborebound/internal/core"
	"roborebound/internal/geom"
	"roborebound/internal/obs"
	"roborebound/internal/obs/perf"
	"roborebound/internal/radio"
	"roborebound/internal/sim"
	"roborebound/internal/trusted"
	"roborebound/internal/wire"
)

// Config describes one robot.
type Config struct {
	ID wire.RobotID //rebound:snapshot-skip construction identity, not run state
	// Protected selects RoboRebound; false gives the unprotected
	// baseline (controller wired straight to sensors/actuators/radio).
	Protected bool
	// Core holds the protocol parameters (used when Protected).
	Core core.Config //rebound:snapshot-skip immutable config, supplied at rebuild
	// Factory builds the mission controller.
	Factory control.Factory
	// Master is the MRS master key; Sealed the mission key bundle.
	Master []byte                   //rebound:snapshot-skip key material, re-injected at rebuild
	Sealed trusted.SealedMissionKey //rebound:snapshot-skip key material, re-injected at rebuild
	// TrustedClock, when non-nil, replaces the engine clock as the
	// robot's local time source: the trusted pair's timestamps and
	// token-freshness timers AND the c-node's protocol scheduling (the
	// c-node has no clock of its own — it reads time from the trusted
	// hardware, so checkpoint times, token-request times, and
	// authenticator times all come from the same source; auditors
	// cross-check those against each other). Fault injection uses it
	// to model per-robot clock skew and drift. Physics and Safe-Mode
	// bookkeeping stay on the engine clock, so skew is observable the
	// way the paper's analysis assumes: only through the robot's own
	// protocol behavior.
	//
	//rebound:snapshot-skip clock wiring, reattached at rebuild
	TrustedClock func() wire.Tick //rebound:clock trusted
	// Trace receives the robot's protocol events (nil = disabled).
	// The trusted nodes never see it — the TCB import surface stays
	// stdlib-only — so trusted-node transitions (Safe Mode, token
	// expiry) are observed from this layer: Safe Mode via the a-node's
	// kill-switch callback, expiry by polling ValidTokenCount on the
	// hardware timer.
	Trace obs.Tracer //rebound:snapshot-skip observer wiring, reattached at rebuild
	// Metrics, when non-nil, rebinds the engine's protocol tallies to
	// registry counters (see core.Engine.Instrument).
	Metrics *obs.Registry //rebound:snapshot-skip observer wiring, reattached at rebuild
	// AuditCache, when non-nil, is the swarm-shared replay-verdict
	// cache (see core.AuditCache). The facade passes one cache to every
	// robot of a sim.
	AuditCache *core.AuditCache //rebound:snapshot-skip swarm-level cache, snapshotted once by the runner
	// Perf, when non-nil, attributes the protocol engine's wall-clock
	// cost (audit serves, chain appends) to the shared phase timer.
	// Observation-only, like Trace; the trusted nodes never see it
	// either — the TCB import surface stays stdlib-only, so the c-node
	// engine times its calls into the trusted layer from outside.
	Perf *perf.PhaseTimer //rebound:snapshot-skip observation-only wall-clock plane, reattached at rebuild
}

// Robot is a sim.Actor. All robots — protected, unprotected, and the
// attack package's compromised variants — are built on this type.
type Robot struct {
	id  wire.RobotID
	cfg Config
	//rebound:snapshot-skip owned by sim.World, snapshotted there
	body *sim.Body
	//rebound:snapshot-skip shared medium, snapshotted once by the runner
	medium *radio.Medium
	//rebound:snapshot-skip clock wiring, reattached at rebuild
	clock func() wire.Tick //rebound:clock engine

	// Protected path. pclock is the local protocol clock — the
	// trusted clock when one is injected, the engine clock otherwise.
	snode  *trusted.SNode
	anode  *trusted.ANode
	engine *core.Engine
	//rebound:snapshot-skip clock wiring, reattached at rebuild
	pclock func() wire.Tick //rebound:clock trusted

	// Unprotected path.
	ctrl control.Controller

	safeModeAt wire.Tick //rebound:clock engine
	inSafeMode bool

	trace       obs.Tracer //rebound:snapshot-skip observer wiring, reattached at rebuild
	validTokens int        // last ValidTokenCount seen (expiry-event polling)
}

// New wires up a robot. body must already be placed in the world;
// clock must report the engine's current tick.
//
//rebound:clock clock=engine
func New(cfg Config, body *sim.Body, medium *radio.Medium, clock func() wire.Tick) *Robot {
	r := &Robot{id: cfg.ID, cfg: cfg, body: body, medium: medium, clock: clock, trace: cfg.Trace}
	if !cfg.Protected {
		r.ctrl = cfg.Factory.New(cfg.ID)
		return r
	}

	//rebound:clockmix zero-skew default: with no injected TrustedClock the robot's local timer IS the engine tick
	r.pclock = clock
	if cfg.TrustedClock != nil {
		r.pclock = cfg.TrustedClock
	}
	tclock := trusted.Clock(r.pclock)
	r.snode = trusted.NewSNode(cfg.Core.BatchSize, tclock)
	r.anode = trusted.NewANode(cfg.Core.ANodeConfig(), tclock,
		func(f wire.Frame) { medium.Send(cfg.ID, f) },
		func(f wire.Frame, enc []byte) { r.engine.OnFrameEnc(f, enc) },
		func(cmd wire.ActuatorCmd) { r.body.Acc = geom.V(cmd.AccX, cmd.AccY) },
		func() {
			r.body.Disabled = true
			r.inSafeMode = true
			r.safeModeAt = clock()
			if r.trace != nil {
				r.trace.Emit(obs.Event{Tick: r.safeModeAt, Robot: r.id,
					Kind: obs.EvSafeModeEntered})
			}
		},
	)
	r.snode.LoadMasterKey(cfg.Master, cfg.ID)
	r.anode.LoadMasterKey(cfg.Master, cfg.ID)
	r.snode.LoadMissionKey(cfg.Sealed)
	r.anode.LoadMissionKey(cfg.Sealed)
	r.engine = core.NewEngine(cfg.ID, cfg.Core, cfg.Factory, r.snode, r.anode, r.anode.SendWirelessEnc)
	r.engine.SetAuditCache(cfg.AuditCache)
	r.engine.Instrument(cfg.Trace, cfg.Metrics)
	r.engine.SetPerf(cfg.Perf)
	return r
}

// ActorID implements sim.Actor.
func (r *Robot) ActorID() wire.RobotID { return r.id }

// Body returns the physics body.
func (r *Robot) Body() *sim.Body { return r.body }

// ANode returns the trusted a-node (nil when unprotected).
func (r *Robot) ANode() *trusted.ANode { return r.anode }

// SNode returns the trusted s-node (nil when unprotected).
func (r *Robot) SNode() *trusted.SNode { return r.snode }

// Engine returns the protocol engine (nil when unprotected).
func (r *Robot) Engine() *core.Engine { return r.engine }

// InSafeMode reports whether the a-node has fired the kill switch.
func (r *Robot) InSafeMode() bool { return r.inSafeMode }

// SafeModeAt returns the tick at which Safe Mode triggered (valid only
// when InSafeMode).
//
//rebound:clock return=engine
func (r *Robot) SafeModeAt() wire.Tick { return r.safeModeAt }

// Controller returns the live controller (either path).
func (r *Robot) Controller() control.Controller {
	if r.engine != nil {
		return r.engine.Controller()
	}
	return r.ctrl
}

// Deliver implements sim.Actor: frames enter through the a-node on
// protected robots, straight into the controller otherwise.
func (r *Robot) Deliver(f wire.Frame) {
	if r.cfg.Protected {
		r.anode.RecvWireless(f)
		return
	}
	if !f.IsAudit() {
		r.ctrl.OnMessage(f.Payload)
	}
}

// RawSend transmits a frame on behalf of this robot's c-node. On a
// protected robot it necessarily goes through the a-node (and is
// chained unless audit-flagged); on an unprotected robot it goes
// straight to the radio. The attack package uses this as the
// compromised c-node's transmit path.
func (r *Robot) RawSend(f wire.Frame) bool {
	if r.cfg.Protected {
		return r.anode.SendWireless(f)
	}
	r.medium.Send(r.id, f)
	return true
}

// RawActuate commands an acceleration on behalf of this robot's
// c-node, through the a-node when protected.
func (r *Robot) RawActuate(cmd wire.ActuatorCmd) bool {
	if r.cfg.Protected {
		return r.anode.ActuatorCmd(cmd)
	}
	if r.body.Crashed {
		return false
	}
	r.body.Acc = geom.V(cmd.AccX, cmd.AccY)
	return true
}

// reading samples the robot's true pose, as the GNSS/IMU suite would.
func (r *Robot) reading(now wire.Tick) wire.SensorReading {
	return wire.SensorReading{
		Time: now,
		PosX: r.body.Pos.X, PosY: r.body.Pos.Y,
		VelX: float32(r.body.Vel.X), VelY: float32(r.body.Vel.Y),
	}
}

// HardwareTick runs the trusted hardware's autonomous periodic work —
// the a-node's token-freshness check (Algorithm 4, "runs
// periodically"). It is driven by the a-node's own timer, so it fires
// regardless of what the (possibly compromised) c-node does; the
// attack package calls it even when the attacker has abandoned the
// protocol.
func (r *Robot) HardwareTick() {
	if r.anode == nil {
		return
	}
	r.anode.CheckTokens()
	// Token-expiry events are observed by polling here rather than
	// from inside the a-node: the TCB must not import obs. A drop in
	// the fresh-token count on the hardware timer IS the expiry, on
	// the same clock the a-node itself uses. The count is polled traced
	// or not: it is snapshot state, and a snapshot must not depend on
	// whether anyone was watching.
	n := r.anode.ValidTokenCount()
	if n < r.validTokens && r.trace != nil {
		r.trace.Emit(obs.Event{Tick: r.pclock(), Robot: r.id,
			Kind: obs.EvTokenExpired, Value: int64(n)})
	}
	r.validTokens = n
}

// Tick implements sim.Actor: poll sensors, step the control loop, run
// the audit protocol (protected only).
//
//rebound:clock now=engine
func (r *Robot) Tick(now wire.Tick) {
	r.HardwareTick()
	if r.body.Crashed {
		return
	}
	if r.cfg.Protected {
		// The protocol runs on the robot's local (trusted) clock: the
		// c-node reads time from the trusted hardware, so sensor
		// timestamps, round scheduling, checkpoints, and token
		// requests all agree even when that clock is skewed.
		lnow := r.pclock()
		if fwd, enc, ok := r.snode.PollSensorsEnc(r.reading(lnow)); ok {
			r.engine.OnSensorReadingEnc(fwd, enc)
		}
		r.engine.Tick(lnow)
		return
	}
	out := r.ctrl.OnSensor(r.reading(now))
	if out.Broadcast != nil {
		// Lent by the controller: the frame sent carries its own copy.
		payload := append([]byte(nil), out.Broadcast...)
		r.medium.Send(r.id, wire.Frame{Src: r.id, Dst: wire.Broadcast, Payload: payload})
	}
	if out.HasCmd {
		r.body.Acc = geom.V(out.Cmd.AccX, out.Cmd.AccY)
	}
}
