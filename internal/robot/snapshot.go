package robot

import (
	"errors"

	"roborebound/internal/wire"
)

// Snapshot codec for one robot. The robot's own dynamic state is the
// Safe-Mode bookkeeping and the token-count poll cursor; everything
// else lives in sub-blobs owned by the packages holding the state —
// trusted nodes, protocol engine (which carries the controller and the
// audit log), or the bare controller on the unprotected path. The
// physics body is the world's to snapshot, and wiring (clocks, trace,
// metrics, medium) is rebuild state.

// EncodeState serializes the robot's dynamic state as an opaque blob.
func (r *Robot) EncodeState() []byte {
	w := wire.NewWriter(256)
	if r.inSafeMode {
		w.U8(1)
	} else {
		w.U8(0)
	}
	w.U64(uint64(r.safeModeAt))
	w.U32(uint32(r.validTokens))
	if !r.cfg.Protected {
		w.Blob(r.ctrl.AppendState(nil))
		return w.Bytes()
	}
	w.Blob(r.snode.EncodeState())
	w.Blob(r.anode.EncodeState())
	w.Blob(r.engine.EncodeState())
	return w.Bytes()
}

// RestoreState applies a blob from EncodeState onto a structurally
// identical rebuilt robot (same Config modulo observability wiring).
// The Safe-Mode latch is restored without re-firing the kill-switch
// callback: the transition's trace event was emitted before the
// snapshot, and the body's Disabled flag is the world codec's to
// restore.
func (r *Robot) RestoreState(b []byte) error {
	rd := wire.NewReader(b)
	inSafeMode := rd.U8()
	safeModeAt := wire.Tick(rd.U64())
	validTokens := rd.U32()
	if rd.Err() != nil {
		return rd.Err()
	}
	if inSafeMode > 1 {
		return errors.New("robot: snapshot safe-mode flag out of range")
	}
	if !r.cfg.Protected {
		state := rd.Blob()
		if rd.Err() != nil {
			return rd.Err()
		}
		ctrl, err := r.cfg.Factory.Load(nil, r.id, state)
		if err != nil {
			return err
		}
		if err := rd.Done(); err != nil {
			return err
		}
		r.ctrl = ctrl
		r.inSafeMode = inSafeMode == 1
		r.safeModeAt = safeModeAt
		r.validTokens = int(validTokens)
		return nil
	}
	sn := rd.Blob()
	an := rd.Blob()
	en := rd.Blob()
	if rd.Err() != nil {
		return rd.Err()
	}
	if err := rd.Done(); err != nil {
		return err
	}
	if err := r.snode.RestoreState(sn); err != nil {
		return err
	}
	if err := r.anode.RestoreState(an); err != nil {
		return err
	}
	if err := r.engine.RestoreState(en); err != nil {
		return err
	}
	r.inSafeMode = inSafeMode == 1
	r.safeModeAt = safeModeAt
	r.validTokens = int(validTokens)
	return nil
}
