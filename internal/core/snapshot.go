package core

import (
	"bytes"
	"errors"
	"fmt"

	"roborebound/internal/wire"
)

// Snapshot codec for the protocol engine and the shared audit-verdict
// cache. Rebuild-then-apply (see internal/snapshot): configuration,
// factory, trusted-node pointers, and the send hook come from
// rebuilding the run; this codec carries only the tick-mutable state —
// heard set, protocol clock, round counter, serve window, the
// in-flight audit round, protocol tallies, the round-latency
// histogram, the controller state, and the audit log. The trusted
// nodes the engine points at are snapshotted by the robot layer via
// their own codecs; the shared AuditCache is snapshotted once per run,
// not per engine.

// EncodeState serializes the engine's dynamic state as an opaque blob.
func (e *Engine) EncodeState() []byte {
	w := wire.NewWriter(256)
	w.U32(uint32(len(e.heard)))
	for _, p := range e.heard {
		w.U16(uint16(p.id))
		w.U64(uint64(p.at))
	}
	w.U64(uint64(e.now))
	w.U32(uint32(e.rounds))
	w.U32(uint32(len(e.served)))
	for _, t := range e.served {
		w.U64(uint64(t))
	}
	w.Bool(e.round != nil)
	if e.round != nil {
		encodeAuditRound(w, e.round)
	}
	for _, c := range e.statValues() {
		w.U64(c)
	}
	w.Bool(e.roundLatency != nil)
	if e.roundLatency != nil {
		counts, count, sum := e.roundLatency.State()
		w.U32(uint32(len(counts)))
		for _, c := range counts {
			w.U64(c)
		}
		w.U64(count)
		w.F64(sum)
	}
	w.Blob(e.ctrl.AppendState(nil))
	w.Blob(e.log.EncodeState())
	return w.Bytes()
}

// RestoreState applies a blob from EncodeState onto a freshly rebuilt
// engine (same config, factory, and instrumentation as the snapshotted
// one). The controller is reconstructed through the factory's Load,
// the audit log through its own codec.
func (e *Engine) RestoreState(b []byte) error {
	r := wire.NewReader(b)
	n := r.Count(10)
	heard := make([]heardPeer, n)
	prev := -1
	for i := range heard {
		heard[i] = heardPeer{id: r.NextID(&prev), at: wire.Tick(r.U64())}
	}
	now := wire.Tick(r.U64())
	rounds := int(r.U32())
	served := make([]wire.Tick, r.Count(8))
	for i := range served {
		served[i] = wire.Tick(r.U64())
	}
	var round *auditRound
	if r.Bool() {
		round = decodeAuditRound(r)
	}
	var stats [8]uint64
	for i := range stats {
		stats[i] = r.U64()
	}
	hasHist := r.Bool()
	if hasHist && e.roundLatency == nil {
		r.Fail(errors.New("core: snapshot has a round-latency histogram but the rebuilt engine is uninstrumented"))
	}
	var histCounts []uint64
	var histCount uint64
	var histSum float64
	if hasHist {
		histCounts = make([]uint64, r.Count(8))
		for i := range histCounts {
			histCounts[i] = r.U64()
		}
		histCount, histSum = r.U64(), r.F64()
	}
	ctrlState := r.Blob() // Load keeps no reference to it
	logState := r.Blob()
	if err := r.Done(); err != nil {
		return err
	}
	ctrl, err := e.factory.Load(nil, e.id, ctrlState)
	if err != nil {
		return fmt.Errorf("core: restore controller: %w", err)
	}
	if err := e.log.RestoreState(logState); err != nil {
		return err
	}
	if hasHist {
		if err := e.roundLatency.SetState(histCounts, histCount, histSum); err != nil {
			return err
		}
	}
	e.heard = heard
	e.now = now
	e.rounds = rounds
	e.served = served
	e.round = round
	e.ctrl = ctrl
	e.setStatValues(stats)
	return nil
}

// statValues returns the eight protocol tallies in a fixed order —
// the snapshot wire order, which must never be reordered (version
// bumps only).
func (e *Engine) statValues() [8]uint64 {
	s := e.stats
	return [8]uint64{s.RoundsStarted, s.RoundsCovered, s.RoundsAbandoned, s.AuditsRequested,
		s.AuditsServed, s.AuditsRefused, s.TokensInstalled, s.TokensRejected}
}

func (e *Engine) setStatValues(v [8]uint64) {
	e.stats = Stats{RoundsStarted: v[0], RoundsCovered: v[1], RoundsAbandoned: v[2], AuditsRequested: v[3],
		AuditsServed: v[4], AuditsRefused: v[5], TokensInstalled: v[6], TokensRejected: v[7]}
}

func encodeAuditRound(w *wire.Writer, r *auditRound) {
	w.Raw(r.hash[:])
	w.U64(uint64(r.startAt))
	flags := uint8(0)
	if r.covered {
		flags |= 1
	}
	if r.fromBoot {
		flags |= 2
	}
	// reqTail nil-ness is load-bearing: nil means "not built yet" and
	// the next askOne builds it; an empty non-nil tail would be used
	// as-is and corrupt every subsequent request. A covered round holds
	// neither tail nor segment, so it is written with bit 4 clear and an
	// empty segment blob.
	if r.reqTail != nil {
		flags |= 4
	}
	w.U8(flags)
	w.Blob(r.encStart)
	w.U32(uint32(len(r.startTok)))
	for i := range r.startTok {
		w.Raw(r.startTok[i].Encode())
	}
	w.Blob(r.encEnd)
	w.Blob(r.segment)
	if r.reqTail != nil {
		w.Blob(r.reqTail)
	}
	w.U32(uint32(len(r.tokens)))
	for i := range r.tokens {
		w.U16(uint16(r.tokens[i].Auditor))
		w.Raw(r.tokens[i].Encode())
	}
	w.U32(uint32(len(r.asked)))
	for _, id := range r.asked {
		w.U16(uint16(id))
	}
	w.U64(uint64(r.lastAsk))
}

func decodeAuditRound(r *wire.Reader) *auditRound {
	round := new(auditRound)
	copy(round.hash[:], r.Raw(len(round.hash)))
	round.startAt = wire.Tick(r.U64())
	flags := r.Flags(7)
	round.covered = flags&1 != 0
	round.fromBoot = flags&2 != 0
	if enc := r.Blob(); len(enc) > 0 {
		round.encStart = append([]byte(nil), enc...)
	}
	for i, n := 0, r.Count(wire.TokenSize); i < n; i++ {
		tok, err := wire.DecodeToken(r.Raw(wire.TokenSize))
		r.Fail(err)
		round.startTok = append(round.startTok, tok)
	}
	round.encEnd = append([]byte(nil), r.Blob()...)
	segment := r.Blob()
	if flags&4 == 0 {
		round.segment = append([]byte(nil), segment...)
	} else {
		// A round that encoded a request holds one copy of its bytes:
		// the segment is the end of the tail (see askOne), and is
		// restored as that view.
		tail := r.Blob()
		if !bytes.HasSuffix(tail, segment) {
			r.Fail(errors.New("core: snapshot round segment is not the end of its request tail"))
			return round
		}
		round.reqTail = append([]byte(nil), tail...)
		round.segment = round.reqTail[len(round.reqTail)-len(segment):]
	}
	if round.covered {
		// A covered round asks no one again and holds no request bytes.
		// Snapshots taken before covered rounds let go of them still
		// carry the tail; it is read (and checked) above, then dropped.
		round.segment, round.reqTail = nil, nil
	}
	// Each token is filed under its auditor's ID and binds the round's
	// checkpoint: onAuditResponse stores no other kind, and one filed
	// under another ID would count its auditor twice toward f_max+1.
	prev := -1
	for i, n := 0, r.Count(2+wire.TokenSize); i < n; i++ {
		id := r.NextID(&prev)
		tok, err := wire.DecodeToken(r.Raw(wire.TokenSize))
		r.Fail(err)
		switch {
		case tok.Auditor != id:
			r.Fail(fmt.Errorf("core: snapshot round files auditor %d's token under %d", tok.Auditor, id))
		case tok.HCkpt != round.hash:
			r.Fail(fmt.Errorf("core: snapshot round token from auditor %d binds another checkpoint", id))
		}
		round.tokens = append(round.tokens, tok)
	}
	prev = -1
	for i, n := 0, r.Count(2); i < n; i++ {
		round.asked = append(round.asked, r.NextID(&prev))
	}
	round.lastAsk = wire.Tick(r.U64())
	return round
}

// EncodeState serializes the verdict cache in FIFO order, preserving
// the eviction cursor so a restored cache evicts in the same sequence
// the uninterrupted run would. Verdict contents never reach the
// fingerprint/trace/metrics surfaces directly, but they do steer
// trusted MAC-op tallies and replay work, so the cache is part of the
// byte-identity contract like everything else.
func (c *AuditCache) EncodeState() []byte {
	w := wire.NewWriter(16 + len(c.fifo)*(32+1+20))
	w.U32(uint32(c.cap))
	w.U32(uint32(c.next))
	w.U32(uint32(len(c.fifo)))
	for _, key := range c.fifo {
		w.Raw(key[:])
		v := c.m[key]
		w.Bool(v.OK)
		w.Raw(v.HCkpt[:])
	}
	w.U64(c.hits)
	w.U64(c.misses)
	return w.Bytes()
}

// RestoreState replaces the cache contents with a blob from
// EncodeState. The capacity must match the rebuilt cache's.
func (c *AuditCache) RestoreState(b []byte) error {
	r := wire.NewReader(b)
	if capacity := int(r.U32()); capacity != c.cap {
		r.Fail(fmt.Errorf("core: snapshot audit cache capacity %d, rebuilt cache has %d", capacity, c.cap))
	}
	next := int(r.U32())
	n := r.Count(32 + 1 + 20)
	if n > c.cap {
		r.Fail(errors.New("core: snapshot audit cache count out of range"))
	}
	if next < 0 || (n < c.cap && next != 0) || (n == c.cap && next >= c.cap && c.cap > 0) {
		r.Fail(errors.New("core: snapshot audit cache cursor out of range"))
	}
	fifo := make([][32]byte, n)
	m := make(map[[32]byte]AuditVerdict, n)
	for i, key := range fifo {
		copy(key[:], r.Raw(32))
		v := AuditVerdict{OK: r.Bool()}
		copy(v.HCkpt[:], r.Raw(20))
		if _, dup := m[key]; dup {
			r.Fail(errors.New("core: snapshot audit cache has duplicate keys"))
		}
		fifo[i], m[key] = key, v
	}
	hits, misses := r.U64(), r.U64()
	if err := r.Done(); err != nil {
		return err
	}
	c.fifo = fifo
	c.m = m
	c.next = next
	c.hits = hits
	c.misses = misses
	return nil
}
