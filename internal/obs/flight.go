package obs

import (
	"sort"

	"roborebound/internal/wire"
)

// DefaultFlightRing is the per-robot, per-plane ring capacity used by
// the chaos harness.
const DefaultFlightRing = 64

// ring is a fixed-capacity event ring. Events carry a recorder-global
// sequence number so two rings for the same robot can be merged back
// into emission order when dumped.
type ring struct {
	buf   []seqEvent
	next  int
	total int
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
	r.total++
}

// FlightRecorder is a Tracer that keeps each robot's last N events in
// bounded memory — the black box the fault-injection checker dumps
// when it latches a violation. The chaos harness attaches one only to
// the deterministic re-run of a cell whose checker latched.
//
// Each robot gets two independent rings: one for protocol-plane
// events (audit rounds, tokens, Safe Mode) and one for the
// radio-plane frame events, which outnumber protocol events by
// orders of magnitude. Ringing them together would let frame traffic
// evict the exact token/round history a violation post-mortem needs.
type FlightRecorder struct {
	n     int
	seq   int
	rings map[wire.RobotID]*robotRings
}

type robotRings struct {
	protocol ring
	radio    ring
}

// NewFlightRecorder returns a recorder keeping the last n events of
// each plane per robot. n <= 0 selects DefaultFlightRing.
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = DefaultFlightRing
	}
	return &FlightRecorder{n: n, rings: make(map[wire.RobotID]*robotRings)}
}

// Emit implements Tracer.
func (f *FlightRecorder) Emit(e Event) {
	rr := f.rings[e.Robot]
	if rr == nil {
		rr = &robotRings{
			protocol: ring{buf: make([]seqEvent, 0, f.n)},
			radio:    ring{buf: make([]seqEvent, 0, f.n)},
		}
		f.rings[e.Robot] = rr
	}
	f.seq++
	if e.Kind.FramePlane() {
		rr.radio.push(f.seq, e)
	} else {
		rr.protocol.push(f.seq, e)
	}
}

// Events returns the retained events for one robot, both planes
// merged back into emission order. Nil if the robot never emitted.
func (f *FlightRecorder) Events(id wire.RobotID) []Event {
	rr := f.rings[id]
	if rr == nil {
		return nil
	}
	merged := make([]seqEvent, 0, len(rr.protocol.buf)+len(rr.radio.buf))
	merged = append(merged, rr.protocol.buf...)
	merged = append(merged, rr.radio.buf...)
	sort.Slice(merged, func(i, j int) bool { return merged[i].seq < merged[j].seq })
	out := make([]Event, len(merged))
	for i, se := range merged {
		out[i] = se.ev
	}
	return out
}

// Dropped returns how many of the robot's events have been evicted
// from its rings (total emitted minus retained).
func (f *FlightRecorder) Dropped(id wire.RobotID) int {
	rr := f.rings[id]
	if rr == nil {
		return 0
	}
	return rr.protocol.total - len(rr.protocol.buf) +
		rr.radio.total - len(rr.radio.buf)
}

// Robots returns the IDs with retained events, ascending.
func (f *FlightRecorder) Robots() []wire.RobotID {
	ids := make([]wire.RobotID, 0, len(f.rings))
	for id := range f.rings {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
