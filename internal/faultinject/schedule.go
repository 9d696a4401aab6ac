// Package faultinject is a deterministic, schedule-driven
// fault-injection layer for chaos-testing the RoboRebound defense.
//
// A Schedule is a list of (start tick, duration, targets, params)
// fault entries derived purely from (profile, seed), so every chaotic
// run is bit-reproducible and replayable. Faults compose: a loss
// burst can overlap a partition which can overlap an attacker's
// misbehavior window — exactly the regime where audit protocols are
// most fragile (§3.6–§3.10 of the paper condition BTI on surviving
// it).
//
// The schedule plugs into the rest of the system through narrow
// hooks, none of which know about fault injection:
//
//   - radio.LossModel / radio.LinkFilter / radio.TxDelay on the
//     medium (loss bursts, per-link loss, partitions,
//     withheld/delayed audit responses);
//   - robot.Config.TrustedClock (per-robot clock skew and drift on
//     the trusted pair's timers);
//   - the attack package's Silent strategy (crash-silent robots —
//     the facade wires Crash faults as attack.Silent compromises).
//
// The companion Checker (invariants.go) watches every tick and
// reports the first violated paper guarantee with tick, robot, and
// fault context.
package faultinject

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"roborebound/internal/prng"
	"roborebound/internal/radio"
	"roborebound/internal/wire"
)

// Kind enumerates the environmental fault types.
type Kind uint8

const (
	// LossBurst raises the uniform loss rate for every link during
	// the window (Rate; targets ignored).
	LossBurst Kind = iota + 1
	// LinkLoss adds loss rate Rate on links touching any target
	// robot during the window.
	LinkLoss
	// Partition blocks every frame crossing the boundary between the
	// target set and the rest of the swarm during the window.
	Partition
	// ClockSkew offsets the targets' trusted-hardware clocks by
	// OffsetTicks (+ DriftPer1024 per 1024 elapsed ticks) during the
	// window. The engine clock — and hence physics, delivery, and
	// Safe-Mode bookkeeping — is unaffected.
	ClockSkew
	// Crash makes the targets crash-silent from Start onward:
	// they stop transmitting and responding entirely (the facade
	// implements this by compromising them with attack.Silent).
	// Duration is ignored; a crash is permanent.
	Crash
	// WithholdAudit blocks audit/token responses transmitted by the
	// targets during the window (the "withheld token responses"
	// griefing fault).
	WithholdAudit
	// DelayAudit delays audit/token responses transmitted by the
	// targets by DelayTicks delivery rounds during the window.
	DelayAudit
)

// String returns the kind's schedule-format name.
func (k Kind) String() string {
	switch k {
	case LossBurst:
		return "loss-burst"
	case LinkLoss:
		return "link-loss"
	case Partition:
		return "partition"
	case ClockSkew:
		return "clock-skew"
	case Crash:
		return "crash"
	case WithholdAudit:
		return "withhold-audit"
	case DelayAudit:
		return "delay-audit"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Fault is one schedule entry: a kind, a [Start, Start+Duration)
// activity window, the targeted robots (meaning depends on Kind; nil
// = swarm-wide where that makes sense), and kind-specific params.
type Fault struct {
	Kind     Kind
	Start    wire.Tick
	Duration wire.Tick
	Targets  []wire.RobotID

	// Rate is the loss probability for LossBurst / LinkLoss.
	Rate float64
	// OffsetTicks is the constant clock offset for ClockSkew
	// (negative = the robot's trusted clock runs behind).
	OffsetTicks int64
	// DriftPer1024 adds OffsetTicks drift: DriftPer1024 extra ticks
	// of skew accumulate per 1024 elapsed window ticks (integer
	// math, so bit-exact across platforms).
	DriftPer1024 int64
	// DelayTicks is the per-frame hold for DelayAudit.
	DelayTicks wire.Tick
}

// ActiveAt reports whether the fault's window covers tick now.
// Crash faults are active from Start forever.
func (f *Fault) ActiveAt(now wire.Tick) bool {
	if now < f.Start {
		return false
	}
	if f.Kind == Crash {
		return true
	}
	return now < f.Start+f.Duration
}

// TargetsRobot reports whether id is targeted (nil target list = all).
func (f *Fault) TargetsRobot(id wire.RobotID) bool {
	if len(f.Targets) == 0 {
		return true
	}
	for _, t := range f.Targets {
		if t == id {
			return true
		}
	}
	return false
}

// String renders one entry of the schedule format documented in
// DESIGN.md: kind@[start,end) targets{...} params.
func (f *Fault) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s@[%d,%d)", f.Kind, f.Start, f.Start+f.Duration)
	if len(f.Targets) > 0 {
		ids := make([]string, len(f.Targets))
		for i, t := range f.Targets {
			ids[i] = fmt.Sprintf("%d", t)
		}
		fmt.Fprintf(&b, " targets{%s}", strings.Join(ids, ","))
	}
	switch f.Kind {
	case LossBurst, LinkLoss:
		fmt.Fprintf(&b, " rate=%.2f", f.Rate)
	case ClockSkew:
		fmt.Fprintf(&b, " offset=%+d drift=%+d/1024", f.OffsetTicks, f.DriftPer1024)
	case DelayAudit:
		fmt.Fprintf(&b, " delay=%d", f.DelayTicks)
	}
	return b.String()
}

// Schedule is an ordered set of fault entries.
type Schedule struct {
	Faults []Fault
}

// Describe renders the faults active at now, for violation reports.
func (s *Schedule) Describe(now wire.Tick) []string {
	var out []string
	for i := range s.Faults {
		if s.Faults[i].ActiveAt(now) {
			out = append(out, s.Faults[i].String())
		}
	}
	return out
}

// Strings renders every entry, in schedule order.
func (s *Schedule) Strings() []string {
	out := make([]string, len(s.Faults))
	for i := range s.Faults {
		out[i] = s.Faults[i].String()
	}
	return out
}

// CrashTargets returns the robots any Crash fault makes crash-silent,
// with the tick each goes dark, sorted by id.
func (s *Schedule) CrashTargets() map[wire.RobotID]wire.Tick {
	out := make(map[wire.RobotID]wire.Tick)
	for i := range s.Faults {
		f := &s.Faults[i]
		if f.Kind != Crash {
			continue
		}
		for _, id := range f.Targets {
			at, seen := out[id]
			if !seen || f.Start < at {
				out[id] = f.Start
			}
		}
	}
	return out
}

// EnvDisturbedAt reports the latest tick ≤ now at which any
// connectivity-affecting fault (everything except ClockSkew) was
// active, and whether one ever was. The invariant checker uses it to
// start liveness timers only after the environment calms down.
func (s *Schedule) EnvDisturbedAt(now wire.Tick) (wire.Tick, bool) {
	var latest wire.Tick
	found := false
	for i := range s.Faults {
		f := &s.Faults[i]
		if f.Kind == ClockSkew || f.Start > now {
			continue
		}
		end := now
		if f.Kind != Crash && f.Start+f.Duration-1 < now {
			end = f.Start + f.Duration - 1
		}
		if !found || end > latest {
			latest = end
		}
		found = true
	}
	return latest, found
}

// --- Medium adapters -------------------------------------------------
//
// Each adapter closes over a clock reporting the engine's current
// tick, so fault windows align exactly with engine time (the medium's
// own delivery counter can lag on idle rounds).

// has reports whether any entry is of one of kinds.
func (s *Schedule) has(kinds ...Kind) bool {
	for i := range s.Faults {
		if slices.Contains(kinds, s.Faults[i].Kind) {
			return true
		}
	}
	return false
}

// LossModel builds the radio loss model for this schedule: the active
// LossBurst/LinkLoss contributions, capped at 1. Returns nil when the
// schedule has no loss faults (the medium stays loss-free).
func (s *Schedule) LossModel(clock func() wire.Tick) radio.LossModel {
	if !s.has(LossBurst, LinkLoss) {
		return nil
	}
	return &scheduleLoss{s: s, clock: clock}
}

type scheduleLoss struct {
	s     *Schedule
	clock func() wire.Tick
}

// Drop implements radio.LossModel. Overlapping faults compose by
// independent-survival: P(drop) = 1 − ∏(1 − rateᵢ), evaluated with a
// single draw so the RNG stream stays one-draw-per-candidate. The
// drop region is the low tail (draw < P), matching radio.UniformLoss.
func (l *scheduleLoss) Drop(from, to wire.RobotID, draw float64) bool {
	now := l.clock()
	keep := 1.0
	for i := range l.s.Faults {
		f := &l.s.Faults[i]
		if !f.ActiveAt(now) {
			continue
		}
		switch f.Kind {
		case LossBurst:
			keep *= 1 - f.Rate
		case LinkLoss:
			if f.TargetsRobot(from) || f.TargetsRobot(to) {
				keep *= 1 - f.Rate
			}
		}
	}
	return draw < 1-keep
}

// MinMTUBytes is the smallest nonzero radio MTU a faulted cell may run
// at: an audit response frame (header plus wire.AuditResponseSize, 53
// bytes) then travels unfragmented, so WithholdAudit and DelayAudit see
// its kind. Below it they would do nothing.
const MinMTUBytes = wire.FrameHeaderSize + wire.AuditResponseSize

// isAuditResponse reports whether f carries an (unfragmented)
// audit/token response. Fragments hide the payload kind; at an MTU of
// 0 or at least MinMTUBytes a response is never fragmented, so this is
// exact there.
func isAuditResponse(f wire.Frame) bool {
	return f.IsAudit() && f.Flags&wire.FlagFragment == 0 &&
		wire.PayloadKind(f.Payload) == wire.KindAuditResponse
}

// LinkFilter builds the radio link filter implementing Partition and
// WithholdAudit faults. Returns nil when the schedule has neither.
func (s *Schedule) LinkFilter(clock func() wire.Tick) radio.LinkFilter {
	if !s.has(Partition, WithholdAudit) {
		return nil
	}
	return func(from, to wire.RobotID, f wire.Frame) bool {
		now := clock()
		for i := range s.Faults {
			fl := &s.Faults[i]
			if !fl.ActiveAt(now) {
				continue
			}
			switch fl.Kind {
			case Partition:
				if fl.TargetsRobot(from) != fl.TargetsRobot(to) {
					return true
				}
			case WithholdAudit:
				if fl.TargetsRobot(from) && isAuditResponse(f) {
					return true
				}
			}
		}
		return false
	}
}

// TxDelay builds the radio transmit-delay hook implementing
// DelayAudit faults. Returns nil when the schedule has none.
func (s *Schedule) TxDelay(clock func() wire.Tick) radio.TxDelay {
	if !s.has(DelayAudit) {
		return nil
	}
	return func(from wire.RobotID, f wire.Frame) wire.Tick {
		now := clock()
		var d wire.Tick
		for i := range s.Faults {
			fl := &s.Faults[i]
			if fl.Kind == DelayAudit && fl.ActiveAt(now) && fl.TargetsRobot(from) && isAuditResponse(f) {
				if fl.DelayTicks > d {
					d = fl.DelayTicks
				}
			}
		}
		return d
	}
}

// Clock builds the skewed trusted-hardware clock for robot id, or nil
// when no ClockSkew fault ever targets id (use the engine clock
// directly). The returned clock clamps at 0 — wire.Tick is unsigned
// and a skewed clock before mission start reads as "still tick 0".
// Like the medium's hooks it scans the schedule at each reading, so a
// robot's clock is one closure and nothing else.
func (s *Schedule) Clock(id wire.RobotID, base func() wire.Tick) func() wire.Tick {
	if !slices.ContainsFunc(s.Faults, func(f Fault) bool { return f.skews(id) }) {
		return nil
	}
	return func() wire.Tick {
		now := base()
		off := int64(0)
		for i := range s.Faults {
			f := &s.Faults[i]
			if f.skews(id) && f.ActiveAt(now) {
				off += f.OffsetTicks + f.DriftPer1024*int64(now-f.Start)/1024
			}
		}
		skewed := int64(now) + off
		if skewed < 0 {
			return 0
		}
		return wire.Tick(skewed)
	}
}

// skews reports whether f skews robot id's trusted clock.
func (f *Fault) skews(id wire.RobotID) bool { return f.Kind == ClockSkew && f.TargetsRobot(id) }

// --- Deterministic generation ----------------------------------------

// Profile names a fault-mix recipe for Generate.
type Profile string

const (
	// ProfileNone injects nothing — the control cell of the matrix.
	ProfileNone Profile = "none"
	// ProfileLoss injects repeated swarm-wide loss bursts.
	ProfileLoss Profile = "loss"
	// ProfilePartition injects short partitions isolating a small group.
	ProfilePartition Profile = "partition"
	// ProfileSkew injects clock skew/drift on a couple of robots.
	ProfileSkew Profile = "skew"
	// ProfileCrash crashes one robot mid-run.
	ProfileCrash Profile = "crash"
	// ProfileGrief withholds and delays audit responses.
	ProfileGrief Profile = "grief"
	// ProfileMixed samples a little of everything.
	ProfileMixed Profile = "mixed"
)

// Profiles lists every generated profile, in display order.
func Profiles() []Profile {
	return []Profile{ProfileNone, ProfileLoss, ProfilePartition, ProfileSkew,
		ProfileCrash, ProfileGrief, ProfileMixed}
}

// Limits carries the protocol timing bounds Generate sizes its fault
// windows by: tokens live TVal; rounds recur every TAudit. Both must be
// set; a chaos cell takes them from its core.Config.
type Limits struct {
	TVal   wire.Tick
	TAudit wire.Tick
	// Avoid lists robots Generate must not target with Crash,
	// ClockSkew, or WithholdAudit faults — the facade passes the
	// deliberate attackers here so fault attribution stays clean.
	Avoid []wire.RobotID
}

// Schedulable reports whether Generate can place any fault in a run of
// total ticks. Faults start after the a-node grace window (the first
// TVal) plus one audit round and end TVal before the run does, so a run
// no longer than 2·TVal + TAudit gets an empty schedule whatever its
// profile.
func Schedulable(total wire.Tick, lim Limits) bool {
	return total > 2*lim.TVal+lim.TAudit
}

func (l Limits) avoid(id wire.RobotID) bool {
	for _, a := range l.Avoid {
		if a == id {
			return true
		}
	}
	return false
}

// pickTargets draws n distinct non-avoided robots, sorted ascending.
func pickTargets(rng *prng.Source, ids []wire.RobotID, lim Limits, n int) []wire.RobotID {
	pool := make([]wire.RobotID, 0, len(ids))
	for _, id := range ids {
		if !lim.avoid(id) {
			pool = append(pool, id)
		}
	}
	if n > len(pool) {
		n = len(pool)
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	out := append([]wire.RobotID(nil), pool[:n]...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Generate derives a fault schedule purely from (profile, seed) for a
// mission over ids lasting total ticks. Identical inputs produce an
// identical schedule, bit for bit. Window lengths and rates are
// bounded by lim: partitions and bursts stay well under TVal, a clock
// skew's offset is at most TAudit/2 forward or TAudit back, and
// per-link loss stays ≤ 0.25 over at most 3/4 TVal.
//
// The bounds do not make every schedule survivable. A skew window
// steps its targets' trusted clocks mid-run, ageing every token they
// hold at once, and 20 of the 25 known false-positive latches are such
// steps: with the same skews held from power-up, no step, those cells
// are clean (TestLatchCausesHoldTheirCounterfactual).
func Generate(profile Profile, seed uint64, ids []wire.RobotID, total wire.Tick, lim Limits) Schedule {
	rng := prng.New(seed ^ 0xFA017)
	var s Schedule
	// Faults start after the a-node grace window (first TVal) plus one
	// audit round, and end before the run does, so every window is
	// followed by quiet time in which the checker can observe recovery.
	// The guard also keeps the subtractions below from underflowing.
	if !Schedulable(total, lim) {
		return s
	}
	lo := lim.TVal + lim.TAudit
	hi := total - lim.TVal
	window := func(maxLen wire.Tick) (wire.Tick, wire.Tick) {
		minLen := lim.TAudit / 2
		if maxLen <= minLen {
			maxLen = minLen + 1
		}
		start := lo + wire.Tick(rng.Intn(int(hi-lo)))
		length := minLen + wire.Tick(rng.Intn(int(maxLen-minLen)))
		if start+length > hi {
			length = hi - start
		}
		return start, length
	}

	lossBursts := func(n int) {
		for i := 0; i < n; i++ {
			start, length := window(lim.TVal / 3)
			s.Faults = append(s.Faults, Fault{
				Kind: LossBurst, Start: start, Duration: length,
				Rate: rng.Range(0.30, 0.55),
			})
		}
	}
	// linkLoss impairs one or two robots' links. Rate and duration
	// are bounded together: a token installed just before the window
	// expires TVal ticks later, so a targeted window approaching TVal
	// at the top of the rate range can starve a correct robot of its
	// f_max+1 fresh tokens. Capping the window at 3/4 TVal keeps at
	// least one audit round of freshness margin after it lifts.
	linkLoss := func() {
		start, length := window(3 * lim.TVal / 4)
		s.Faults = append(s.Faults, Fault{
			Kind: LinkLoss, Start: start, Duration: length,
			Targets: pickTargets(rng, ids, lim, 1+rng.Intn(2)),
			Rate:    rng.Range(0.15, 0.25),
		})
	}
	partition := func() {
		start, length := window(lim.TVal / 4)
		s.Faults = append(s.Faults, Fault{
			Kind: Partition, Start: start, Duration: length,
			Targets: pickTargets(rng, ids, lim, 1+rng.Intn(max(1, len(ids)/4))),
		})
	}
	skew := func() {
		start, length := window(2 * lim.TVal)
		// A skew window steps the robot's trusted clock by |offset| at
		// one edge (forward at the start for positive skew, forward at
		// the end for negative), ageing every installed token by that
		// much at once. The caps, TAudit/2 forward and TAudit back, do
		// not make the step survivable: they leave out the time the
		// round in flight still needs. Such steps make 20 of the 25
		// known false-positive latches (see Generate).
		off := 1 + int64(rng.Intn(int(max(1, int(lim.TAudit/2)))))
		if rng.Intn(2) == 0 {
			off = -2 * off
		}
		s.Faults = append(s.Faults, Fault{
			Kind: ClockSkew, Start: start, Duration: length,
			Targets:      pickTargets(rng, ids, lim, 1+rng.Intn(2)),
			OffsetTicks:  off,
			DriftPer1024: int64(rng.Intn(33) - 16),
		})
	}
	crash := func() {
		span := int(hi-lo) / 3
		start := lo + wire.Tick(span+rng.Intn(max(1, span)))
		s.Faults = append(s.Faults, Fault{
			Kind: Crash, Start: start,
			Targets: pickTargets(rng, ids, lim, 1),
		})
	}
	// grief withholds one robot's audit responses and delays up to
	// maxDelayed more. The caller bounds maxDelayed by the quorum
	// margin: every auditee must keep f_max+1 reachable auditors, so
	// profiles that also impair auditors through other faults (mixed)
	// must grieve fewer of them.
	grief := func(maxDelayed int) {
		start, length := window(lim.TVal)
		s.Faults = append(s.Faults, Fault{
			Kind: WithholdAudit, Start: start, Duration: length,
			Targets: pickTargets(rng, ids, lim, 1),
		})
		start, length = window(2 * lim.TVal)
		s.Faults = append(s.Faults, Fault{
			Kind: DelayAudit, Start: start, Duration: length,
			Targets:    pickTargets(rng, ids, lim, 1+rng.Intn(maxDelayed)),
			DelayTicks: wire.Tick(2 + rng.Intn(5)),
		})
	}

	switch profile {
	case ProfileNone:
	case ProfileLoss:
		lossBursts(2 + rng.Intn(2))
		linkLoss()
	case ProfilePartition:
		partition()
		partition()
	case ProfileSkew:
		skew()
		skew()
	case ProfileCrash:
		crash()
	case ProfileGrief:
		grief(2)
	case ProfileMixed:
		lossBursts(1)
		partition()
		skew()
		grief(1)
	default:
		// Unknown profiles generate nothing rather than guessing.
	}
	sort.SliceStable(s.Faults, func(i, j int) bool { return s.Faults[i].Start < s.Faults[j].Start })
	return s
}
