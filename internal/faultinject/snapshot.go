package faultinject

import (
	"roborebound/internal/obs"
	"roborebound/internal/radio"
	"roborebound/internal/wire"
)

// Snapshot codec for the invariant checker. The checker's dynamic
// state is the latched violation and the three per-robot cursors the
// cross-tick invariants depend on: previous byte counters (monotony),
// last covered-round count, and the tick it last advanced (liveness).
// Timing parameters, the schedule, and the Trace and Explain hooks are
// rebuild state. A resumed run must carry these cursors or the
// liveness deadline would silently restart at the snapshot tick.

// EncodeState serializes the checker as an opaque blob.
func (c *Checker) EncodeState() []byte {
	w := wire.NewWriter(256)
	w.Bool(c.violation != nil)
	if c.violation != nil {
		encodeViolation(w, c.violation)
	}

	ids := wire.SortedIDs(c.prev)
	w.U32(uint32(len(ids)))
	for _, id := range ids {
		p := c.prev[id]
		w.U16(uint16(id))
		w.U64(p.TxApp)
		w.U64(p.TxAudit)
		w.U64(p.RxApp)
		w.U64(p.RxAudit)
		w.U64(p.TxFrames)
		w.U64(p.RxFrames)
		w.U64(p.Dropped)
	}

	ids = wire.SortedIDs(c.lastCov)
	w.U32(uint32(len(ids)))
	for _, id := range ids {
		w.U16(uint16(id))
		w.U64(c.lastCov[id])
		w.U64(uint64(c.lastAdv[id]))
	}
	return w.Bytes()
}

// RestoreState applies a blob from EncodeState onto a rebuilt checker
// with the same timing parameters and schedule.
func (c *Checker) RestoreState(b []byte) error {
	r := wire.NewReader(b)
	var viol *Violation
	if r.Bool() {
		viol = decodeViolation(r)
	}

	n := r.Count(2 + 7*8)
	prev := make(map[wire.RobotID]radio.ByteCounters, n)
	last := -1
	for i := 0; i < n; i++ {
		id := r.NextID(&last)
		prev[id] = radio.ByteCounters{
			TxApp: r.U64(), TxAudit: r.U64(),
			RxApp: r.U64(), RxAudit: r.U64(),
			TxFrames: r.U64(), RxFrames: r.U64(), Dropped: r.U64(),
		}
	}

	n = r.Count(2 + 16)
	lastCov := make(map[wire.RobotID]uint64, n)
	lastAdv := make(map[wire.RobotID]wire.Tick, n)
	last = -1
	for i := 0; i < n; i++ {
		id := r.NextID(&last)
		lastCov[id] = r.U64()
		lastAdv[id] = wire.Tick(r.U64())
	}
	if err := r.Done(); err != nil {
		return err
	}
	c.violation = viol
	c.prev = prev
	c.lastCov = lastCov
	c.lastAdv = lastAdv
	return nil
}

func encodeViolation(w *wire.Writer, v *Violation) {
	w.Blob([]byte(v.Invariant))
	w.U64(uint64(v.Tick))
	w.U16(uint16(v.Robot))
	w.Blob([]byte(v.Detail))
	w.U32(uint32(len(v.ActiveFaults)))
	for _, f := range v.ActiveFaults {
		w.Blob([]byte(f))
	}
	w.U32(uint32(len(v.Events)))
	for _, e := range v.Events {
		encodeEvent(w, e)
	}
}

func decodeViolation(r *wire.Reader) *Violation {
	v := &Violation{
		Invariant: string(r.Blob()),
		Tick:      wire.Tick(r.U64()),
		Robot:     wire.RobotID(r.U16()),
		Detail:    string(r.Blob()),
	}
	for i, n := 0, r.Count(4); i < n; i++ {
		v.ActiveFaults = append(v.ActiveFaults, string(r.Blob()))
	}
	// Each event record is at least 25 bytes.
	for i, n := 0, r.Count(25); i < n; i++ {
		v.Events = append(v.Events, decodeEvent(r))
	}
	return v
}

func encodeEvent(w *wire.Writer, e obs.Event) {
	w.U64(uint64(e.Tick))
	w.U16(uint16(e.Robot))
	w.U8(uint8(e.Kind))
	w.U16(uint16(e.Peer))
	w.U8(uint8(e.Cause))
	w.U64(uint64(e.Value))
	w.Blob([]byte(e.Detail))
}

func decodeEvent(r *wire.Reader) obs.Event {
	return obs.Event{
		Tick:   wire.Tick(r.U64()),
		Robot:  wire.RobotID(r.U16()),
		Kind:   obs.EventKind(r.U8()),
		Peer:   wire.RobotID(r.U16()),
		Cause:  obs.DropCause(r.U8()),
		Value:  int64(r.U64()),
		Detail: string(r.Blob()),
	}
}
