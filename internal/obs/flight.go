package obs

import (
	"slices"

	"roborebound/internal/wire"
)

// flightRing is the capacity of each of a flight recorder's two rings.
const flightRing = 64

// ring is a fixed-capacity event ring. Events carry a recorder-wide
// sequence number so the two rings can be merged back into emission
// order when dumped.
type ring struct {
	buf  []seqEvent
	next int
}

type seqEvent struct {
	seq int
	ev  Event
}

func (r *ring) push(seq int, e Event) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, seqEvent{seq, e})
	} else {
		r.buf[r.next] = seqEvent{seq, e}
	}
	r.next = (r.next + 1) % cap(r.buf)
}

// FlightRecorder is a Tracer that keeps one robot's last events in
// bounded memory — the black box the fault-injection checker dumps
// when it latches a violation. The chaos harness attaches one only to
// the deterministic re-run of a cell whose checker latched, and that
// re-run knows the robot it has to explain before it starts.
//
// The robot gets two independent rings: one for protocol-plane events
// (audit rounds, tokens, Safe Mode) and one for the radio-plane frame
// events, which outnumber protocol events by orders of magnitude.
// Ringing them together would let frame traffic evict the exact
// token/round history a violation post-mortem needs.
type FlightRecorder struct {
	robot           wire.RobotID
	seq             int
	protocol, radio ring
}

// NewFlightRecorder returns a recorder keeping robot's last 64 events
// of each plane; every other robot's events are ignored.
func NewFlightRecorder(robot wire.RobotID) *FlightRecorder {
	return &FlightRecorder{
		robot:    robot,
		protocol: ring{buf: make([]seqEvent, 0, flightRing)},
		radio:    ring{buf: make([]seqEvent, 0, flightRing)},
	}
}

// Emit implements Tracer.
func (f *FlightRecorder) Emit(e Event) {
	if e.Robot != f.robot {
		return
	}
	f.seq++
	if e.Kind.FramePlane() {
		f.radio.push(f.seq, e)
	} else {
		f.protocol.push(f.seq, e)
	}
}

// Events returns the retained events, both planes merged back into
// emission order. Nil if the robot never emitted.
func (f *FlightRecorder) Events() []Event {
	if f.seq == 0 {
		return nil
	}
	merged := append(slices.Clone(f.protocol.buf), f.radio.buf...)
	slices.SortFunc(merged, func(a, b seqEvent) int { return a.seq - b.seq })
	out := make([]Event, len(merged))
	for i, se := range merged {
		out[i] = se.ev
	}
	return out
}
