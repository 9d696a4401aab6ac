package trusted

import (
	"errors"

	"roborebound/internal/cryptolite"
	"roborebound/internal/wire"
)

// Snapshot codecs for the trusted plane.
//
// Snapshots are rebuild-then-apply: the host reconstructs the run
// structurally from the same (config, seed) — which re-derives master
// and mission keys, hooks, and clocks — and then applies the dynamic
// state captured here. Key material therefore NEVER appears in
// snapshot bytes; the codec records only whether a key was installed
// (so a Safe-Mode key-zeroing survives the round trip) and the
// tick-mutable state: chain position, token map, rate-limiter bucket,
// Safe-Mode latch, grace deadline, and load counters.
//
// These methods live inside internal/trusted so the trust boundary is
// preserved: the snapshot package hands each node an opaque blob and
// gets one back, exactly like the c-node handles authenticators it
// cannot forge. All encoding uses the wire idioms (big-endian, length
// prefixes, no map-order dependence) and all decoding is bounded by
// wire.Reader, so a hostile snapshot can error but not panic or OOM.

// encodeState appends the chain's dynamic state: the top hash, the
// pending count and, mid-batch, the running SHA-1 digest.
func (c *Chain) encodeState(w *wire.Writer) {
	w.Raw(c.top[:])
	w.U32(uint32(c.pending))
	if c.pending > 0 {
		w.Blob(c.h.MarshalState())
	}
}

func (c *Chain) restoreState(r *wire.Reader) {
	copy(c.top[:], r.Raw(cryptolite.SHA1Size))
	pending := r.U32()
	if pending > uint32(c.batchSize) {
		r.Fail(errors.New("trusted: snapshot chain pending count out of range"))
		return
	}
	c.pending = int(pending)
	if pending > 0 {
		r.Fail(c.h.UnmarshalState(r.Blob()))
	}
}

// encodeState appends the node-base dynamic state. The master key,
// robot ID, clock, and node kind are provisioning/rebuild state and
// are not serialized; the key presence flag lets a restore reproduce a
// zeroed key (Safe Mode) without ever seeing key bytes.
func (n *nodeBase) encodeState(w *wire.Writer) {
	w.Bool(n.keyed)
	w.U64(n.keySeq)
	w.U64(n.macOps)
	w.U64(n.hashedBytes)
	n.chain.encodeState(w)
}

func (n *nodeBase) restoreState(r *wire.Reader) {
	hasKey := r.Bool()
	n.keySeq, n.macOps, n.hashedBytes = r.U64(), r.U64(), r.U64()
	if hasKey && !n.keyed {
		r.Fail(errors.New("trusted: snapshot expects an installed mission key but the rebuilt node is keyless"))
	}
	if !hasKey {
		n.zeroKey()
	}
	n.chain.restoreState(r)
}

// EncodeState serializes the s-node's dynamic state as an opaque blob.
func (s *SNode) EncodeState() []byte {
	w := wire.NewWriter(64)
	s.nodeBase.encodeState(w)
	return w.Bytes()
}

// RestoreState applies a blob from EncodeState onto a structurally
// identical rebuilt s-node. Malformed or mismatched bytes error.
func (s *SNode) RestoreState(b []byte) error {
	r := wire.NewReader(b)
	s.nodeBase.restoreState(r)
	return r.Done()
}

// EncodeState serializes the a-node's dynamic state as an opaque blob:
// node base (key presence, counters, chain), token map, leaky-bucket
// level, Safe-Mode latch, and the grace deadline. The token map is
// held, and so written, in ascending auditor-ID order: the encoding is
// canonical.
func (a *ANode) EncodeState() []byte {
	w := wire.NewWriter(128)
	a.nodeBase.encodeState(w)
	w.U32(uint32(len(a.tk)))
	for _, s := range a.tk {
		w.U16(uint16(s.auditor))
		w.U64(uint64(s.t))
	}
	w.F64(a.bktLvl)
	w.U64(uint64(a.lastBktUpdate))
	w.Bool(a.safeMode)
	w.U64(uint64(a.graceUntil))
	return w.Bytes()
}

// RestoreState applies a blob from EncodeState onto a structurally
// identical rebuilt a-node. The Safe-Mode latch is restored directly —
// the kill-switch callback does NOT re-fire, because the host layer
// restores its own Safe-Mode bookkeeping (and the trace event for the
// transition was already emitted before the snapshot was taken).
func (a *ANode) RestoreState(b []byte) error {
	r := wire.NewReader(b)
	a.nodeBase.restoreState(r)
	n := r.Count(10)
	tk := make([]tokenStamp, n)
	prev := -1
	for i := range tk {
		tk[i] = tokenStamp{auditor: r.NextID(&prev), t: wire.Tick(r.U64())}
	}
	bktLvl := r.F64()
	lastBkt := wire.Tick(r.U64())
	safeMode := r.Bool()
	graceUntil := wire.Tick(r.U64())
	if err := r.Done(); err != nil {
		return err
	}
	if safeMode && a.keyed {
		return errors.New("trusted: snapshot has Safe Mode latched but a mission key installed")
	}
	a.tk = tk
	a.bktLvl = bktLvl
	a.lastBktUpdate = lastBkt
	a.safeMode = safeMode
	a.graceUntil = graceUntil
	return nil
}
