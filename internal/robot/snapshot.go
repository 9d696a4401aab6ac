package robot

import "roborebound/internal/wire"

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
	w.Bool(r.inSafeMode)
	w.U64(uint64(r.safeModeAt))
	w.U32(uint32(r.validTokens))
	if r.engine == nil {
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
	inSafeMode := rd.Bool()
	safeModeAt := wire.Tick(rd.U64())
	validTokens := rd.U32()
	// An unprotected robot carries its controller's state; a protected
	// one its s-node's, a-node's and engine's.
	state := rd.Blob()
	var an, en []byte
	if r.engine != nil {
		an, en = rd.Blob(), rd.Blob()
	}
	if err := rd.Done(); err != nil {
		return err
	}
	if r.engine == nil {
		ctrl, err := r.factory.Load(nil, r.id, state)
		if err != nil {
			return err
		}
		r.ctrl = ctrl
	} else {
		if err := r.snode.RestoreState(state); err != nil {
			return err
		}
		if err := r.anode.RestoreState(an); err != nil {
			return err
		}
		if err := r.engine.RestoreState(en); err != nil {
			return err
		}
	}
	r.inSafeMode = inSafeMode
	r.safeModeAt = safeModeAt
	r.validTokens = int(validTokens)
	return nil
}
