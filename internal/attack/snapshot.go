package attack

import (
	"errors"

	"roborebound/internal/wire"
)

// Snapshot codec for a compromised robot. The wrapper's dynamic state
// is the compromise latch, the misbehavior clock, and the
// eavesdropping ring; the wrapped robot serializes through its own
// codec. Strategies are configuration: every strategy the facade
// builds is a pure function of its config fields and the per-tick Ctx,
// so none of them carries tick-mutable state of its own. (A strategy
// that did — the collusion exchange's shared blackboard lives outside
// any one robot — would need its own codec at the layer that owns it.)

// EncodeState serializes the compromised wrapper plus the wrapped
// robot as an opaque blob.
func (c *Compromised) EncodeState() []byte {
	w := wire.NewWriter(256)
	var flags uint8
	if c.active {
		flags |= 1
	}
	if c.misbehaved {
		flags |= 2
	}
	w.U8(flags)
	w.U64(uint64(c.firstMisbehavior))
	w.U32(uint32(len(c.captured)))
	for _, f := range c.captured {
		w.Blob(f.Encode())
	}
	w.Blob(c.Robot.EncodeState())
	return w.Bytes()
}

// RestoreState applies a blob from EncodeState onto a structurally
// identical rebuilt compromised robot (same CompromiseAt, strategy
// config, and KeepProtocol).
func (c *Compromised) RestoreState(b []byte) error {
	r := wire.NewReader(b)
	flags := r.Flags(3)
	firstMis := wire.Tick(r.U64())
	nCap := r.Count(4)
	if nCap > maxCaptured {
		r.Fail(errors.New("attack: snapshot capture buffer exceeds ring bound"))
	}
	captured := make([]wire.Frame, 0, nCap)
	for i := 0; i < nCap; i++ {
		f, err := wire.DecodeFrame(r.Blob())
		r.Fail(err)
		captured = append(captured, f)
	}
	inner := r.Blob()
	if err := r.Done(); err != nil {
		return err
	}
	if err := c.Robot.RestoreState(inner); err != nil {
		return err
	}
	c.active = flags&1 != 0
	c.misbehaved = flags&2 != 0
	c.firstMisbehavior = firstMis
	c.captured = captured
	return nil
}
