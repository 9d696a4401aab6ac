package sim

import (
	"errors"
	"fmt"

	"roborebound/internal/geom"
	"roborebound/internal/wire"
)

// Snapshot codec for the physics world and the engine clock. The
// world's dynamic state is each body's kinematic state plus the crash
// log; config, the body index, and every spatial-index structure are
// rebuild state. The codec walks bodies in Bodies() order (ascending
// ID) and the decoder insists the rebuilt world has the exact same
// body roster, so a snapshot can only land on the scenario it came
// from.

// EncodeState serializes the world's dynamic state as an opaque blob.
func (w *World) EncodeState() []byte {
	ww := wire.NewWriter(64 + 46*len(w.bodies))
	ww.U32(uint32(len(w.bodies)))
	for _, b := range w.bodies {
		ww.U16(uint16(b.ID))
		ww.F64(b.Pos.X)
		ww.F64(b.Pos.Y)
		ww.F64(b.Vel.X)
		ww.F64(b.Vel.Y)
		ww.F64(b.Acc.X)
		ww.F64(b.Acc.Y)
		var flags uint8
		if b.Disabled {
			flags |= 1
		}
		if b.Crashed {
			flags |= 2
		}
		ww.U8(flags)
	}
	ww.U32(uint32(len(w.crashes)))
	for _, c := range w.crashes {
		ww.U64(uint64(c.Time))
		ww.U16(uint16(c.A))
		ww.U16(uint16(c.B))
	}
	return ww.Bytes()
}

// RestoreState applies a blob from EncodeState onto a structurally
// identical rebuilt world (same config, same AddBody calls).
func (w *World) RestoreState(b []byte) error {
	r := wire.NewReader(b)
	n := int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	if n != len(w.bodies) {
		return fmt.Errorf("sim: snapshot has %d bodies, rebuilt world has %d", n, len(w.bodies))
	}
	// Decode into a scratch copy first so a malformed tail cannot leave
	// the world half-restored.
	type bodyState struct {
		pos, vel, acc geom.Vec2
		disabled      bool
		crashed       bool
	}
	states := make([]bodyState, n)
	for i := 0; i < n; i++ {
		id := wire.RobotID(r.U16())
		if r.Err() != nil {
			return r.Err()
		}
		if id != w.bodies[i].ID {
			return fmt.Errorf("sim: snapshot body %d has ID %d, rebuilt world has %d", i, id, w.bodies[i].ID)
		}
		s := &states[i]
		s.pos = geom.Vec2{X: r.F64(), Y: r.F64()}
		s.vel = geom.Vec2{X: r.F64(), Y: r.F64()}
		s.acc = geom.Vec2{X: r.F64(), Y: r.F64()}
		flags := r.U8()
		if r.Err() != nil {
			return r.Err()
		}
		if flags > 3 {
			return errors.New("sim: snapshot body flags out of range")
		}
		s.disabled = flags&1 != 0
		s.crashed = flags&2 != 0
	}
	nCrash := int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	if nCrash > r.Remaining()/12 {
		return errors.New("sim: snapshot crash count exceeds payload")
	}
	crashes := make([]CrashEvent, 0, nCrash)
	prev := int64(-1)
	for i := 0; i < nCrash; i++ {
		c := CrashEvent{
			Time: wire.Tick(r.U64()),
			A:    wire.RobotID(r.U16()),
			B:    wire.RobotID(r.U16()),
		}
		if int64(c.Time) < prev {
			return errors.New("sim: snapshot crash log not in chronological order")
		}
		prev = int64(c.Time)
		crashes = append(crashes, c)
	}
	if err := r.Done(); err != nil {
		return err
	}
	for i, b := range w.bodies {
		s := &states[i]
		b.Pos, b.Vel, b.Acc = s.pos, s.vel, s.acc
		b.Disabled = s.disabled
		b.Crashed = s.crashed
	}
	w.crashes = crashes
	return nil
}

// RestoreNow sets the engine clock during a snapshot restore. The
// engine otherwise only advances its clock through StepOnce; restoring
// mid-run must land the clock exactly on the captured tick so delivery
// deadlines, observers, and trace stamps line up.
func (e *Engine) RestoreNow(t wire.Tick) { e.now = t }
