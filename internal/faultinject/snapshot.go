package faultinject

import (
	"errors"
	"sort"

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
	if c.violation != nil {
		w.U8(1)
		encodeViolation(w, c.violation)
	} else {
		w.U8(0)
	}

	ids := make([]wire.RobotID, 0, len(c.prev))
	for id := range c.prev {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
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

	ids = ids[:0]
	for id := range c.lastCov {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
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
	hasViol := r.U8()
	if r.Err() != nil {
		return r.Err()
	}
	if hasViol > 1 {
		return errors.New("faultinject: snapshot violation flag out of range")
	}
	var viol *Violation
	if hasViol == 1 {
		v, err := decodeViolation(r)
		if err != nil {
			return err
		}
		viol = v
	}

	nPrev := int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	if nPrev > r.Remaining()/(2+7*8) {
		return errors.New("faultinject: snapshot counter cursor count exceeds payload")
	}
	prev := make(map[wire.RobotID]radio.ByteCounters, nPrev)
	last := -1
	for i := 0; i < nPrev; i++ {
		id := wire.RobotID(r.U16())
		p := radio.ByteCounters{
			TxApp: r.U64(), TxAudit: r.U64(),
			RxApp: r.U64(), RxAudit: r.U64(),
			TxFrames: r.U64(), RxFrames: r.U64(), Dropped: r.U64(),
		}
		if int(id) <= last {
			return errors.New("faultinject: snapshot counter cursors not in canonical order")
		}
		last = int(id)
		prev[id] = p
	}

	nCov := int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	if nCov > r.Remaining()/(2+16) {
		return errors.New("faultinject: snapshot liveness cursor count exceeds payload")
	}
	lastCov := make(map[wire.RobotID]uint64, nCov)
	lastAdv := make(map[wire.RobotID]wire.Tick, nCov)
	last = -1
	for i := 0; i < nCov; i++ {
		id := wire.RobotID(r.U16())
		cov := r.U64()
		adv := wire.Tick(r.U64())
		if int(id) <= last {
			return errors.New("faultinject: snapshot liveness cursors not in canonical order")
		}
		last = int(id)
		lastCov[id] = cov
		lastAdv[id] = adv
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

func decodeViolation(r *wire.Reader) (*Violation, error) {
	v := &Violation{
		Invariant: string(r.Blob()),
		Tick:      wire.Tick(r.U64()),
		Robot:     wire.RobotID(r.U16()),
		Detail:    string(r.Blob()),
	}
	nFaults := int(r.U32())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nFaults > r.Remaining()/4 {
		return nil, errors.New("faultinject: snapshot active-fault count exceeds payload")
	}
	for i := 0; i < nFaults; i++ {
		v.ActiveFaults = append(v.ActiveFaults, string(r.Blob()))
		if r.Err() != nil {
			return nil, r.Err()
		}
	}
	nEvents := int(r.U32())
	if r.Err() != nil {
		return nil, r.Err()
	}
	// Each event record is at least 25 bytes.
	if nEvents > r.Remaining()/25 {
		return nil, errors.New("faultinject: snapshot event count exceeds payload")
	}
	for i := 0; i < nEvents; i++ {
		e, err := decodeEvent(r)
		if err != nil {
			return nil, err
		}
		v.Events = append(v.Events, e)
	}
	return v, r.Err()
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

func decodeEvent(r *wire.Reader) (obs.Event, error) {
	e := obs.Event{
		Tick:  wire.Tick(r.U64()),
		Robot: wire.RobotID(r.U16()),
		Kind:  obs.EventKind(r.U8()),
		Peer:  wire.RobotID(r.U16()),
		Cause: obs.DropCause(r.U8()),
		Value: int64(r.U64()),
	}
	e.Detail = string(r.Blob())
	return e, r.Err()
}
