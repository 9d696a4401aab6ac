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
	if n := r.U32(); n != uint32(len(w.bodies)) {
		r.Fail(fmt.Errorf("sim: snapshot has %d bodies, rebuilt world has %d", n, len(w.bodies)))
	}
	// Decode into a scratch copy first so a malformed tail cannot leave
	// the world half-restored.
	states := make([]Body, len(w.bodies))
	for i, body := range w.bodies {
		id := wire.RobotID(r.U16())
		if id != body.ID {
			r.Fail(fmt.Errorf("sim: snapshot body %d has ID %d, rebuilt world has %d", i, id, body.ID))
		}
		pos := geom.Vec2{X: r.F64(), Y: r.F64()}
		vel := geom.Vec2{X: r.F64(), Y: r.F64()}
		acc := geom.Vec2{X: r.F64(), Y: r.F64()}
		flags := r.Flags(3)
		states[i] = Body{ID: id, Pos: pos, Vel: vel, Acc: acc, Disabled: flags&1 != 0, Crashed: flags&2 != 0}
	}
	crashes := make([]CrashEvent, r.Count(12))
	for i := range crashes {
		crashes[i] = CrashEvent{Time: wire.Tick(r.U64()), A: wire.RobotID(r.U16()), B: wire.RobotID(r.U16())}
		if i > 0 && crashes[i].Time < crashes[i-1].Time {
			r.Fail(errors.New("sim: snapshot crash log not in chronological order"))
		}
	}
	if err := r.Done(); err != nil {
		return err
	}
	for i, b := range w.bodies {
		*b = states[i]
	}
	w.crashes = crashes
	return nil
}

// RestoreNow sets the engine clock during a snapshot restore. The
// engine otherwise only advances its clock through StepOnce; restoring
// mid-run must land the clock exactly on the captured tick so delivery
// deadlines, observers, and trace stamps line up.
func (e *Engine) RestoreNow(t wire.Tick) { e.now = t }
