// Package auditlog implements the c-node side of RoboRebound's
// logging machinery (§3.4, §3.6): the append-only log of
// nondeterministic inputs and outputs, periodic checkpoints of the
// controller state, and the truncation invariant that keeps storage
// constant — the log always starts either at boot or at a checkpoint
// covered by f_max+1 tokens.
package auditlog

import (
	"encoding/binary"
	"fmt"

	"roborebound/internal/cryptolite"
	"roborebound/internal/wire"
)

// Checkpoint is a snapshot the c-node records whenever it requests
// audits (§3.6). It carries the controller's complete state (opaque to
// this package; its encoding is owned by the controller) and fresh
// authenticators from both trusted nodes, so that an auditor replaying
// the *next* segment knows exactly where both hash chains stood.
//
// The §5.2 storage breakdown (time, pose, top hashes, neighbor table ≈
// 690 B for 24 neighbors) corresponds to Time + the two embedded
// authenticator tops + the flocking controller's state blob.
type Checkpoint struct {
	Time  wire.Tick          //rebound:clock trusted
	AuthS wire.Authenticator // s-node chain top at creation
	AuthA wire.Authenticator // a-node chain top at creation
	State []byte             // controller-specific encoded state
}

// Encode serializes the checkpoint. The encoding is canonical: Hash is
// defined over these bytes, and tokens bind to that hash.
func (c *Checkpoint) Encode() []byte {
	return c.AppendEncode(make([]byte, 0, c.EncodedSize()))
}

// AppendEncode appends the checkpoint's encoding to dst and returns
// the extended slice.
func (c *Checkpoint) AppendEncode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(c.Time))
	dst = c.AuthS.AppendEncode(dst)
	dst = c.AuthA.AppendEncode(dst)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(c.State)))
	return append(dst, c.State...)
}

// DecodeCheckpoint parses an encoded checkpoint.
func DecodeCheckpoint(b []byte) (Checkpoint, error) {
	r := wire.NewReader(b)
	var c Checkpoint
	c.Time = wire.Tick(r.U64())
	var err error
	if c.AuthS, err = wire.DecodeAuthenticator(r.Raw(wire.AuthenticatorSize)); err != nil {
		return Checkpoint{}, err
	}
	if c.AuthA, err = wire.DecodeAuthenticator(r.Raw(wire.AuthenticatorSize)); err != nil {
		return Checkpoint{}, err
	}
	c.State = r.Blob()
	if err := r.Done(); err != nil {
		return Checkpoint{}, fmt.Errorf("checkpoint: %w", err)
	}
	return c, nil
}

// Hash returns h_ckpt, the value tokens bind to (§3.5).
func (c *Checkpoint) Hash() cryptolite.ChainHash {
	return cryptolite.SHA1Sum(c.Encode())
}

// EncodedSize returns the checkpoint's storage footprint in bytes.
func (c *Checkpoint) EncodedSize() int {
	return 8 + 2*wire.AuthenticatorSize + 4 + len(c.State)
}
