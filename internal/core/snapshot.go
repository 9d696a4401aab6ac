package core

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

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
	w.U32(uint32(len(e.heardIDs)))
	for i, id := range e.heardIDs {
		w.U16(uint16(id))
		w.U64(uint64(e.heardAt[i]))
	}
	w.U64(uint64(e.now))
	w.U32(uint32(e.rounds))
	w.U32(uint32(len(e.served)))
	for _, t := range e.served {
		w.U64(uint64(t))
	}
	if e.round == nil {
		w.U8(0)
	} else {
		w.U8(1)
		encodeAuditRound(w, e.round)
	}
	for _, c := range e.statValues() {
		w.U64(c)
	}
	if e.roundLatency == nil {
		w.U8(0)
	} else {
		w.U8(1)
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
	nHeard := int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	if nHeard > r.Remaining()/10 {
		return errors.New("core: snapshot heard count exceeds payload")
	}
	heardIDs, heardAt := make([]wire.RobotID, 0, nHeard), make([]wire.Tick, 0, nHeard)
	for i := 0; i < nHeard; i++ {
		id := wire.RobotID(r.U16())
		if i > 0 && id <= heardIDs[i-1] {
			return errors.New("core: snapshot heard set not in canonical order")
		}
		heardIDs, heardAt = append(heardIDs, id), append(heardAt, wire.Tick(r.U64()))
	}
	now := wire.Tick(r.U64())
	rounds := int(r.U32())
	nServed := int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	if nServed > r.Remaining()/8 {
		return errors.New("core: snapshot served count exceeds payload")
	}
	served := make([]wire.Tick, 0, nServed)
	for i := 0; i < nServed; i++ {
		served = append(served, wire.Tick(r.U64()))
	}
	var round *auditRound
	if hasRound := r.U8(); r.Err() == nil && hasRound == 1 {
		var err error
		round, err = decodeAuditRound(r)
		if err != nil {
			return err
		}
	} else if r.Err() == nil && hasRound > 1 {
		return errors.New("core: snapshot round flag out of range")
	}
	var stats [8]uint64
	for i := range stats {
		stats[i] = r.U64()
	}
	hasHist := r.U8()
	if r.Err() != nil {
		return r.Err()
	}
	var histCounts []uint64
	var histCount uint64
	var histSum float64
	if hasHist == 1 {
		if e.roundLatency == nil {
			return errors.New("core: snapshot has a round-latency histogram but the rebuilt engine is uninstrumented")
		}
		nBuckets := int(r.U32())
		if r.Err() != nil {
			return r.Err()
		}
		if nBuckets > r.Remaining()/8 {
			return errors.New("core: snapshot histogram bucket count exceeds payload")
		}
		histCounts = make([]uint64, nBuckets)
		for i := range histCounts {
			histCounts[i] = r.U64()
		}
		histCount = r.U64()
		histSum = r.F64()
	} else if hasHist > 1 {
		return errors.New("core: snapshot histogram flag out of range")
	}
	ctrlState := r.Blob() // Load keeps no reference to it
	logState := r.Blob()
	if r.Err() != nil {
		return r.Err()
	}
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
	if hasHist == 1 {
		if err := e.roundLatency.SetState(histCounts, histCount, histSum); err != nil {
			return err
		}
	}
	e.heardIDs, e.heardAt = heardIDs, heardAt
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
	tokIDs := sortedTokenIDs(nil, r.tokens)
	w.U32(uint32(len(tokIDs)))
	for _, id := range tokIDs {
		tok := r.tokens[id]
		w.U16(uint16(id))
		w.Raw(tok.Encode())
	}
	askIDs := make([]wire.RobotID, 0, len(r.asked))
	for id := range r.asked {
		askIDs = append(askIDs, id)
	}
	sort.Slice(askIDs, func(i, j int) bool { return askIDs[i] < askIDs[j] })
	w.U32(uint32(len(askIDs)))
	for _, id := range askIDs {
		w.U16(uint16(id))
	}
	w.U64(uint64(r.lastAsk))
}

func decodeAuditRound(r *wire.Reader) (*auditRound, error) {
	round := &auditRound{
		tokens: make(map[wire.RobotID]wire.Token),
		asked:  make(map[wire.RobotID]bool),
	}
	copy(round.hash[:], r.Raw(len(round.hash)))
	round.startAt = wire.Tick(r.U64())
	flags := r.U8()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if flags > 7 {
		return nil, errors.New("core: snapshot round flags out of range")
	}
	round.covered = flags&1 != 0
	round.fromBoot = flags&2 != 0
	if enc := r.Blob(); len(enc) > 0 {
		round.encStart = append([]byte(nil), enc...)
	}
	nTok := int(r.U32())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nTok > r.Remaining()/wire.TokenSize {
		return nil, errors.New("core: snapshot start token count exceeds payload")
	}
	for i := 0; i < nTok; i++ {
		tok, err := wire.DecodeToken(r.Raw(wire.TokenSize))
		if r.Err() != nil {
			return nil, r.Err()
		}
		if err != nil {
			return nil, err
		}
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
			return nil, errors.New("core: snapshot round segment is not the end of its request tail")
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
	nRoundTok := int(r.U32())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nRoundTok > r.Remaining()/(2+wire.TokenSize) {
		return nil, errors.New("core: snapshot round token count exceeds payload")
	}
	prev := -1
	for i := 0; i < nRoundTok; i++ {
		id := wire.RobotID(r.U16())
		tok, err := wire.DecodeToken(r.Raw(wire.TokenSize))
		if r.Err() != nil {
			return nil, r.Err()
		}
		if err != nil {
			return nil, err
		}
		if int(id) <= prev {
			return nil, errors.New("core: snapshot round tokens not in canonical order")
		}
		prev = int(id)
		round.tokens[id] = tok
	}
	nAsked := int(r.U32())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nAsked > r.Remaining()/2 {
		return nil, errors.New("core: snapshot asked count exceeds payload")
	}
	prev = -1
	for i := 0; i < nAsked; i++ {
		id := wire.RobotID(r.U16())
		if int(id) <= prev {
			return nil, errors.New("core: snapshot asked set not in canonical order")
		}
		prev = int(id)
		round.asked[id] = true
	}
	round.lastAsk = wire.Tick(r.U64())
	if r.Err() != nil {
		return nil, r.Err()
	}
	return round, nil
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
		if v.OK {
			w.U8(1)
		} else {
			w.U8(0)
		}
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
	capacity := int(r.U32())
	next := int(r.U32())
	n := int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	if capacity != c.cap {
		return fmt.Errorf("core: snapshot audit cache capacity %d, rebuilt cache has %d", capacity, c.cap)
	}
	const entrySize = 32 + 1 + 20
	if n > r.Remaining()/entrySize || n > capacity {
		return errors.New("core: snapshot audit cache count out of range")
	}
	if next < 0 || (n < capacity && next != 0) || (n == capacity && next >= capacity && capacity > 0) {
		return errors.New("core: snapshot audit cache cursor out of range")
	}
	fifo := make([][32]byte, 0, n)
	m := make(map[[32]byte]AuditVerdict, n)
	for i := 0; i < n; i++ {
		var key [32]byte
		copy(key[:], r.Raw(32))
		ok := r.U8()
		var v AuditVerdict
		copy(v.HCkpt[:], r.Raw(20))
		if r.Err() != nil {
			return r.Err()
		}
		if ok > 1 {
			return errors.New("core: snapshot audit cache verdict flag out of range")
		}
		v.OK = ok == 1
		if _, dup := m[key]; dup {
			return errors.New("core: snapshot audit cache has duplicate keys")
		}
		fifo = append(fifo, key)
		m[key] = v
	}
	hits := r.U64()
	misses := r.U64()
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
