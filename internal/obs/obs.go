// Package obs is the deterministic observability layer: a typed
// protocol-event tracer, a bounded one-robot flight recorder, and a
// metrics registry with deterministic snapshots.
//
// RoboRebound's value proposition is accountability — a robot must be
// able to convince f_max+1 peers of exactly what it saw and did
// (§3, PeerReview-style). This package gives the *reproduction* the
// same property: every protocol-visible event (audit rounds, token
// grants and expiries, Safe Mode entries, frame traffic and drops,
// checkpoint flushes, invariant violations) can be captured as a
// typed, tick-stamped record, and every counter the harness reports
// flows through one registry with sorted-key snapshots.
//
// Three rules keep the layer compatible with the repo's determinism
// contracts (see DESIGN.md "Static analysis & determinism contracts"):
//
//   - events are stamped with wire.Tick only — never the wall clock.
//     The tick→µs mapping used by the Chrome-trace exporter is pure
//     arithmetic on the configured tick rate;
//   - tracing is observation only: no tracer may feed back into
//     simulation state, so an instrumented run and an uninstrumented
//     run of the same (config, seed) are byte-identical;
//   - the disabled path is free: all emit sites guard on a nil
//     tracer, and Emit on a nil Tracer performs zero allocations
//     (pinned by TestEmitDisabledZeroAlloc).
package obs

import (
	"fmt"

	"roborebound/internal/wire"
)

// EventKind identifies one protocol event type.
type EventKind uint8

// The event taxonomy. Frame events are "radio-plane" (high volume,
// one per frame); everything else is "protocol-plane" (a handful per
// audit round). The flight recorder rings the two planes separately
// so frame noise cannot evict a robot's protocol history.
const (
	EvNone EventKind = iota
	// EvAuditRoundStart: a robot checkpointed its log and began
	// soliciting auditors. Value = encoded segment bytes.
	EvAuditRoundStart
	// EvAuditRoundComplete: the round collected f_max+1 tokens and the
	// checkpoint is covered. Value = round latency in ticks.
	EvAuditRoundComplete
	// EvAuditRoundAbandoned: a new round started while the previous
	// one was still uncovered. Value = tokens collected by the
	// abandoned round.
	EvAuditRoundAbandoned
	// EvTokenGranted: the a-node installed a token from Peer.
	// Value = tokens held for the current round after installation.
	EvTokenGranted
	// EvTokenExpired: the robot's count of fresh tokens dropped on the
	// a-node's periodic check. Value = fresh tokens remaining.
	EvTokenExpired
	// EvSafeModeEntered: the a-node fired the kill switch.
	EvSafeModeEntered
	// EvFrameTx: one frame (or fragment) left the robot's radio.
	// Peer = claimed destination, Value = encoded bytes.
	EvFrameTx
	// EvFrameRx: one frame (or fragment) was decoded and kept.
	// Peer = physical transmitter, Value = encoded bytes.
	EvFrameRx
	// EvFrameDropped: a deliverable frame was lost; Cause says why.
	// Peer = physical transmitter, Value = encoded bytes. An oversize
	// frame is refused at its transmitter, so there Robot = Peer.
	EvFrameDropped
	// EvCheckpointFlush: the c-node log recorded a chain-flush mark
	// (auditlog.EntryMark) ahead of a checkpoint.
	EvCheckpointFlush
	// EvInvariantViolation: the fault-injection checker latched a
	// violated invariant. Detail carries the description.
	EvInvariantViolation

	numEventKinds // sentinel, keep last
)

var eventKindNames = [numEventKinds]string{
	EvNone:                "none",
	EvAuditRoundStart:     "audit-round-start",
	EvAuditRoundComplete:  "audit-round-complete",
	EvAuditRoundAbandoned: "audit-round-abandoned",
	EvTokenGranted:        "token-granted",
	EvTokenExpired:        "token-expired",
	EvSafeModeEntered:     "safe-mode-entered",
	EvFrameTx:             "frame-tx",
	EvFrameRx:             "frame-rx",
	EvFrameDropped:        "frame-dropped",
	EvCheckpointFlush:     "checkpoint-flush",
	EvInvariantViolation:  "invariant-violation",
}

// String returns the stable kebab-case name used by every exporter.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("kind-%d", uint8(k))
}

// FramePlane reports whether the kind belongs to the high-volume
// radio plane (one event per frame) rather than the protocol plane.
func (k EventKind) FramePlane() bool {
	return k == EvFrameTx || k == EvFrameRx || k == EvFrameDropped
}

// DropCause says why a deliverable frame was lost.
type DropCause uint8

const (
	CauseNone DropCause = iota
	// CauseLoss: the medium's loss model dropped the candidate.
	CauseLoss
	// CauseLinkFilter: a link filter (partition, withheld response)
	// blocked the candidate.
	CauseLinkFilter
	// CauseOversize: the frame needs more fragments at the radio MTU
	// than a fragment header can number, so the medium refused it.
	CauseOversize
)

// String returns the stable name used by the exporters.
func (c DropCause) String() string {
	switch c {
	case CauseLoss:
		return "loss"
	case CauseLinkFilter:
		return "link-filter"
	case CauseOversize:
		return "oversize"
	default:
		return "none"
	}
}

// Event is one tick-stamped protocol event. It is a plain value with
// no heap references on the hot paths (Detail is non-empty only for
// invariant violations), so constructing and passing one allocates
// nothing.
type Event struct {
	// Tick is the event time on the emitting component's clock: the
	// robot's local protocol clock for protocol events, the radio
	// medium's delivery clock for frame events. Never wall time.
	Tick wire.Tick
	// Robot is the robot the event belongs to (the flight recorder
	// keeps only its robot's). wire.Broadcast marks system-wide events.
	Robot wire.RobotID
	// Kind is the event type.
	Kind EventKind
	// Peer is the counterpart robot, when the kind has one: the
	// auditor for token grants, the frame src/dst for radio events.
	// 0 means "no peer".
	Peer wire.RobotID
	// Cause is set on EvFrameDropped only.
	Cause DropCause
	// Value is the kind-specific scalar documented on each kind.
	Value int64
	// Detail is a rare-path annotation (invariant violations); hot
	// paths leave it empty.
	Detail string
}

// String renders the event as one human-readable line (the format the
// flight-recorder dumps use).
func (e Event) String() string {
	s := fmt.Sprintf("tick=%d robot=%d %s", e.Tick, e.Robot, e.Kind)
	if e.Peer != 0 {
		s += fmt.Sprintf(" peer=%d", e.Peer)
	}
	if e.Cause != CauseNone {
		s += " cause=" + e.Cause.String()
	}
	if e.Value != 0 {
		s += fmt.Sprintf(" value=%d", e.Value)
	}
	if e.Detail != "" {
		s += " detail=" + e.Detail
	}
	return s
}

// Tracer consumes protocol events. Implementations must be pure
// observers: consuming an event must not feed back into simulation
// state, or instrumented runs would diverge from clean ones.
//
// A nil Tracer means "disabled"; every emit site in the repo guards
// on nil (or calls Emit, which does), making the disabled path
// zero-cost and allocation-free.
type Tracer interface {
	Emit(Event)
}

// Emit forwards e to t if tracing is enabled. It is the nil-safe
// helper for call sites that don't want to guard themselves.
func Emit(t Tracer, e Event) {
	if t != nil {
		t.Emit(e)
	}
}

// Collector is a Tracer that retains every event in emission order —
// the full-fidelity sink behind the NDJSON and Chrome-trace exports.
type Collector struct {
	events []Event
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Emit implements Tracer.
func (c *Collector) Emit(e Event) { c.events = append(c.events, e) }

// Events returns the collected events in emission order (do not
// mutate).
func (c *Collector) Events() []Event { return c.events }

// Len returns the number of collected events.
func (c *Collector) Len() int { return len(c.events) }
