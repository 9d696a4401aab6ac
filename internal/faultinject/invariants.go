package faultinject

import (
	"fmt"

	"roborebound/internal/obs"
	"roborebound/internal/radio"
	"roborebound/internal/wire"
)

// RobotSnapshot is one robot's observable state at one tick, as the
// facade samples it from the simulation. It is plain data so the
// checker stays decoupled from the robot/attack packages.
type RobotSnapshot struct {
	ID        wire.RobotID
	Protected bool
	// Compromised marks deliberate attackers AND crash-faulted robots
	// (both are wrapped by the attack package); CrashFaulted
	// distinguishes the latter for reporting.
	Compromised  bool
	CrashFaulted bool
	// Misbehaved / MisbehavedAt come from the attack wrapper's
	// FirstMisbehaviorAt — the instant the BTI clock starts.
	Misbehaved   bool
	MisbehavedAt wire.Tick
	InSafeMode   bool
	// PhysCrashed marks robots disabled by a physical collision; their
	// tokens legitimately expire, so Safe-Moding them is not a false
	// positive.
	PhysCrashed bool
	Counters    radio.ByteCounters
	// RoundsCovered is the protocol engine's count of token-covered
	// audit rounds (0 for unprotected robots).
	RoundsCovered uint64
	// LogAccounting is the c-node log's self-check
	// (auditlog.Log.AccountingError); nil when consistent or when the
	// robot has no protocol engine.
	LogAccounting error
}

// Violation reports the first invariant breach a Checker observed,
// with enough context to reproduce it: which invariant, when, which
// robot, and which faults were active at that tick.
type Violation struct {
	Invariant string // "no-false-positive" | "bti" | "conservation-radio" | "conservation-log" | "audit-liveness"
	Tick      wire.Tick
	Robot     wire.RobotID
	Detail    string
	// ActiveFaults renders the schedule entries active at Tick.
	ActiveFaults []string
	// Events is the offending robot's flight-recorder dump (its last N
	// protocol and N frame events), supplied at latch time by the
	// checker's Explain hook. Empty for system-wide violations
	// (Robot == wire.Broadcast) or when the checker has no hook.
	Events []obs.Event
}

// Error formats the violation as a single line, followed by the
// flight-recorder dump when one was captured — a chaos failure is a
// self-contained forensic report.
func (v *Violation) Error() string {
	s := fmt.Sprintf("invariant %s violated at tick %d robot %d: %s", v.Invariant, v.Tick, v.Robot, v.Detail)
	if len(v.ActiveFaults) > 0 {
		s += fmt.Sprintf(" (active faults: %v)", v.ActiveFaults)
	}
	if len(v.Events) > 0 {
		s += fmt.Sprintf("\nflight recorder (last %d events of robot %d):", len(v.Events), v.Robot)
		for _, e := range v.Events {
			s += "\n  " + e.String()
		}
	}
	return s
}

// Checker asserts the paper's guarantees every tick:
//
//  1. no false positives — correct robots are never Safe-Moded
//     (§3.10 "correct robots are never disabled");
//  2. BTI — every misbehaving robot is Safe-Moded within
//     TVal + TAudit of its first misbehavior (T_val for token expiry
//     plus one audit round of granularity, the bound §3.10 proves);
//  3. replay-equivalence, observed through audit liveness — correct
//     robots keep getting their rounds token-covered, which requires
//     every correct auditor's replay of their log to keep succeeding;
//
// plus two conservation checks that keep the simulation itself
// honest: radio byte accounting (per-robot counters are monotone and
// globally conserved — nothing is received that was never sent) and
// log accounting (retained-log growth matches the sum of entry
// sizes).
//
// The first breach is latched as a Violation with tick, robot, and
// fault context; later ticks are still checked (cheaply) but cannot
// overwrite it.
type Checker struct {
	TVal   wire.Tick //rebound:snapshot-skip harness config, fixed at construction
	TAudit wire.Tick //rebound:snapshot-skip harness config, fixed at construction
	// Schedule provides fault context for reports and the
	// environment-quiet timer for the liveness check; optional.
	Schedule *Schedule //rebound:snapshot-skip harness config, fixed at construction
	// Explain, when non-nil, is asked at latch time for the offending
	// robot's recent event history, which rides along with the report
	// as Violation.Events. It is never asked for a system-wide
	// violation (Robot == wire.Broadcast). An error says the history
	// could not be had; it is appended to Violation.Detail, so the
	// report never hides it. Optional.
	Explain func(v *Violation) ([]obs.Event, error) //rebound:snapshot-skip observer wiring, reattached at rebuild
	// Trace, when non-nil, receives an EvInvariantViolation event at
	// latch time (so exported event logs mark the breach in-stream).
	// Optional.
	Trace obs.Tracer //rebound:snapshot-skip observer wiring, reattached at rebuild

	violation *Violation
	prev      map[wire.RobotID]radio.ByteCounters
	lastCov   map[wire.RobotID]uint64
	lastAdv   map[wire.RobotID]wire.Tick
}

// NewChecker builds a checker for a run with the given protocol
// timing.
func NewChecker(tval, taudit wire.Tick, sched *Schedule) *Checker {
	return &Checker{
		TVal: tval, TAudit: taudit, Schedule: sched,
		prev:    make(map[wire.RobotID]radio.ByteCounters),
		lastCov: make(map[wire.RobotID]uint64),
		lastAdv: make(map[wire.RobotID]wire.Tick),
	}
}

// Violation returns the first latched breach, or nil.
func (c *Checker) Violation() *Violation { return c.violation }

func (c *Checker) report(inv string, now wire.Tick, id wire.RobotID, format string, args ...any) {
	if c.violation != nil {
		return
	}
	v := &Violation{Invariant: inv, Tick: now, Robot: id, Detail: fmt.Sprintf(format, args...)}
	if c.Schedule != nil {
		v.ActiveFaults = c.Schedule.Describe(now)
	}
	if c.Explain != nil && id != wire.Broadcast {
		events, err := c.Explain(v)
		if err != nil {
			v.Detail += fmt.Sprintf(" [no event history: %v]", err)
		}
		v.Events = events
	}
	if c.Trace != nil {
		c.Trace.Emit(obs.Event{Tick: now, Robot: id,
			Kind: obs.EvInvariantViolation, Detail: inv + ": " + v.Detail})
	}
	c.violation = v
}

// btiDeadline returns the last tick by which a robot misbehaving at t
// must be in Safe Mode.
func (c *Checker) btiDeadline(t wire.Tick) wire.Tick { return t + c.TVal + c.TAudit }

// Check runs every invariant against this tick's snapshots. It
// returns the latched violation (possibly from an earlier tick), or
// nil while all invariants hold.
func (c *Checker) Check(now wire.Tick, snaps []RobotSnapshot) *Violation {
	var txBytes, rxBytes, txFrames, rxFrames uint64
	n := uint64(len(snaps))

	for i := range snaps {
		s := &snaps[i]

		// 1. No false positives.
		if s.InSafeMode && !s.Compromised && !s.PhysCrashed {
			c.report("no-false-positive", now, s.ID,
				"correct robot entered Safe Mode")
		}

		// 2. Bounded-time interaction.
		if s.Misbehaved && !s.InSafeMode && now > c.btiDeadline(s.MisbehavedAt) {
			what := "misbehaving"
			if s.CrashFaulted {
				what = "crash-silent"
			}
			c.report("bti", now, s.ID,
				"%s robot (first misbehavior at tick %d) not Safe-Moded by deadline %d",
				what, s.MisbehavedAt, c.btiDeadline(s.MisbehavedAt))
		}

		// 3a. Radio conservation: per-robot counters are monotone.
		if p, ok := c.prev[s.ID]; ok {
			cur := s.Counters
			if cur.TxApp < p.TxApp || cur.TxAudit < p.TxAudit ||
				cur.RxApp < p.RxApp || cur.RxAudit < p.RxAudit ||
				cur.TxFrames < p.TxFrames || cur.RxFrames < p.RxFrames ||
				cur.Dropped < p.Dropped {
				c.report("conservation-radio", now, s.ID,
					"byte counters went backwards: %+v -> %+v", p, cur)
			}
		}
		c.prev[s.ID] = s.Counters
		txBytes += s.Counters.TxApp + s.Counters.TxAudit
		rxBytes += s.Counters.RxApp + s.Counters.RxAudit
		txFrames += s.Counters.TxFrames
		rxFrames += s.Counters.RxFrames

		// 3b. Log conservation.
		if s.LogAccounting != nil {
			c.report("conservation-log", now, s.ID, "%v", s.LogAccounting)
		}

		// 4. Audit liveness (replay equivalence made observable): a
		// correct protected robot's covered-round count must keep
		// advancing — every correct auditor must keep reproducing its
		// log — once the environment has been quiet long enough.
		if s.Protected && !s.Compromised && !s.PhysCrashed && !s.InSafeMode {
			last, seen := c.lastCov[s.ID]
			if !seen || s.RoundsCovered > last {
				c.lastCov[s.ID] = s.RoundsCovered
				c.lastAdv[s.ID] = now
			} else {
				quietSince := c.lastAdv[s.ID]
				if c.Schedule != nil {
					if t, ok := c.Schedule.EnvDisturbedAt(now); ok && t > quietSince {
						quietSince = t
					}
				}
				// Grace: the first covered round takes one full TVal
				// (a-node grace) plus audit latency from boot.
				if g := c.TVal + c.TAudit; g > quietSince {
					quietSince = g
				}
				if now > quietSince+c.TVal+2*c.TAudit {
					c.report("audit-liveness", now, s.ID,
						"covered rounds stuck at %d since tick %d (env quiet since %d)",
						s.RoundsCovered, c.lastAdv[s.ID], quietSince)
				}
			}
		}
	}

	// 3c. Radio conservation, global: a frame transmitted once is
	// received at most n-1 times, and only decoded-and-kept bytes are
	// counted, so ΣRx ≤ ΣTx·(n−1).
	if n > 1 {
		if rxBytes > txBytes*(n-1) {
			c.report("conservation-radio", now, wire.Broadcast,
				"global Rx bytes %d exceed Tx %d x (n-1)", rxBytes, txBytes)
		}
		if rxFrames > txFrames*(n-1) {
			c.report("conservation-radio", now, wire.Broadcast,
				"global Rx frames %d exceed Tx %d x (n-1)", rxFrames, txFrames)
		}
	}

	return c.violation
}
