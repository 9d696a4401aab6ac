package core

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"roborebound/internal/cryptolite"
	"roborebound/internal/trusted"
	"roborebound/internal/wire"
)

// These tests own the two rules the audit round's single copy of its
// request bytes rests on (see startRound and askOne): the log-window
// alias is gone before anything can rewrite the window, and a payload
// that has been sent is only ever read again.

// within reports whether inner's bytes lie inside outer's.
func within(outer, inner []byte) bool {
	if len(inner) == 0 || len(outer) < len(inner) {
		return false
	}
	o, i := uintptr(unsafe.Pointer(unsafe.SliceData(outer))), uintptr(unsafe.Pointer(unsafe.SliceData(inner)))
	return i >= o && i+uintptr(len(inner)) <= o+uintptr(len(outer))
}

// fill receives from peers 2..6 (so all five are auditor candidates)
// and polls the sensors until the log window holds at least n bytes.
func (r *dataPathRobot) fill(n int) {
	for r.eng.Log().StorageBytes() < n {
		for i := 0; i < 40; i++ {
			r.an.RecvWireless(peerFrame(wire.RobotID(2+i%5), r.now))
		}
		reading := wire.SensorReading{Time: r.now, PosX: 1, PosY: float64(r.now)}
		if fwd, enc, ok := r.sn.PollSensorsEnc(reading); ok {
			r.eng.OnSensorReadingEnc(fwd, r.own(enc))
		}
		r.now++
		r.eng.now = r.now
	}
}

// wantRequest is the test's own encoding of the request the current
// round owes auditor f.Dst: the round's checkpoint fields, the given
// segment, and the per-auditor token request as the a-node signed it
// (read back from the frame; the test cannot mint one).
func wantRequest(t *testing.T, rd *auditRound, f wire.Frame, segment []byte) []byte {
	t.Helper()
	head, _, err := wire.SplitAuditRequest(f.Payload)
	if err != nil {
		t.Fatalf("frame to %d is not an audit request: %v", f.Dst, err)
	}
	if head.Auditor != f.Dst || head.Req.Auditor != f.Dst || head.Auditee != 1 || head.Req.Auditee != 1 {
		t.Fatalf("frame to %d carries a request from %d to %d (token request %d to %d)",
			f.Dst, head.Auditee, head.Auditor, head.Req.Auditee, head.Req.Auditor)
	}
	want := wire.AuditRequest{
		Auditee: 1, Auditor: f.Dst, Req: head.Req,
		FromBoot:        rd.fromBoot,
		StartCheckpoint: rd.encStart,
		StartTokens:     rd.startTok,
		EndCheckpoint:   rd.encEnd,
		Segment:         segment,
	}
	return want.Encode()
}

// roundModel is the map model of a round's two sets: the token each
// auditor's response installed, keyed by auditor, and every auditor
// asked.
type roundModel struct {
	tokens map[wire.RobotID]wire.Token
	asked  map[wire.RobotID]bool
}

func newRoundModel() roundModel {
	return roundModel{tokens: make(map[wire.RobotID]wire.Token), asked: make(map[wire.RobotID]bool)}
}

// modelOf is rd's sets as the maps they model.
func modelOf(rd *auditRound) roundModel {
	m := newRoundModel()
	for _, tok := range rd.tokens {
		m.tokens[tok.Auditor] = tok
	}
	for _, id := range rd.asked {
		m.asked[id] = true
	}
	return m
}

// sortedTokens is m's tokens in ascending key order.
func (m roundModel) sortedTokens() []wire.Token {
	var out []wire.Token
	for _, id := range wire.SortedIDs(m.tokens) {
		out = append(out, m.tokens[id])
	}
	return out
}

// roundBlob is the snapshot encoding of an audit round written out by
// hand, field by field in the codec's order, with the segment and the
// request tail supplied by the caller (nil tail: no ask encoded yet;
// nil segment and tail: a covered round, which holds neither).
func roundBlob(rd *auditRound, segment, reqTail []byte) []byte {
	return modelRoundBlob(rd, segment, reqTail, modelOf(rd))
}

// modelRoundBlob is roundBlob with the round's sets taken from m: each
// token written under its key, keys and asks ascending.
func modelRoundBlob(rd *auditRound, segment, reqTail []byte, m roundModel) []byte {
	w := wire.NewWriter(0)
	w.Raw(rd.hash[:])
	w.U64(uint64(rd.startAt))
	var flags uint8
	if rd.covered {
		flags |= 1
	}
	if rd.fromBoot {
		flags |= 2
	}
	if reqTail != nil {
		flags |= 4
	}
	w.U8(flags)
	w.Blob(rd.encStart)
	w.U32(uint32(len(rd.startTok)))
	for i := range rd.startTok {
		w.Raw(rd.startTok[i].Encode())
	}
	w.Blob(rd.encEnd)
	w.Blob(segment)
	if reqTail != nil {
		w.Blob(reqTail)
	}
	w.U32(uint32(len(m.tokens)))
	for _, id := range wire.SortedIDs(m.tokens) {
		tok := m.tokens[id]
		w.U16(uint16(id))
		w.Raw(tok.Encode())
	}
	w.U32(uint32(len(m.asked)))
	for _, id := range wire.SortedIDs(m.asked) {
		w.U16(uint16(id))
	}
	w.U64(uint64(rd.lastAsk))
	return w.Bytes()
}

// checkRoundSnapshot holds the round's snapshot bytes to the hand-built
// blob, directly and as they sit inside the engine's.
func checkRoundSnapshot(t *testing.T, e *Engine, segment, reqTail []byte) {
	t.Helper()
	want := roundBlob(e.round, segment, reqTail)
	w := wire.NewWriter(0)
	encodeAuditRound(w, e.round)
	if !bytes.Equal(w.Bytes(), want) {
		t.Errorf("the round's snapshot encoding differs from the hand-built one (%d vs %d bytes)", w.Len(), len(want))
	}
	blob := e.EncodeState()
	if !bytes.Contains(blob, want) {
		t.Error("the engine's snapshot does not carry the hand-built round encoding")
	}
}

// TestRoundSendsWholeFramesFromOneCopy: a round started with candidates
// in earshot sends f_max+1 frames, each with a whole payload of its own
// that equals the test's encoding of the request; the round's segment
// and tail are views of the first of them, not of the log window and
// not a further copy. The last is measured by what it costs: between a
// small and a large window a round allocates f_max+1 windows more (the
// payloads), where cloning the window and then its tail made it
// f_max+3.
func TestRoundSendsWholeFramesFromOneCopy(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.TAudit = 0
	round := func(window int) (r *dataPathRobot, allocated uint64) {
		r = newDataPathRobot(t, cfg, false)
		r.fill(window)
		// The measured round is the robot's second: the first one's
		// checkpoint marker may be the append that grows the window.
		r.eng.startRound(r.now)
		r.now++
		r.sent = r.sent[:0]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r.eng.startRound(r.now)
		runtime.ReadMemStats(&after)
		return r, after.TotalAlloc - before.TotalAlloc
	}
	r, small := round(256 << 10)
	rd := r.eng.round
	if len(r.sent) != cfg.Fmax+1 {
		t.Fatalf("round sent %d frames, want f_max+1 = %d", len(r.sent), cfg.Fmax+1)
	}
	seg, err := r.eng.Log().SegmentTo(rd.hash)
	if err != nil {
		t.Fatal(err)
	}
	if entries, err := wire.DecodeLogEntries(seg.Encoded); err != nil || len(entries) != r.eng.Log().EntryCount() ||
		entries[len(entries)-1].Kind != wire.EntryMark {
		t.Fatalf("the window up to the round's checkpoint is not the whole log ending in its marker (err %v)", err)
	}
	for i, f := range r.sent {
		if !bytes.Equal(f.Payload, wantRequest(t, rd, f, seg.Encoded)) {
			t.Errorf("frame %d (to %d) is not the encoding of the round's request", i, f.Dst)
		}
		if _, err := wire.DecodeAuditRequest(f.Payload); err != nil {
			t.Errorf("frame %d does not decode as one whole request: %v", i, err)
		}
		if within(seg.Encoded, f.Payload[len(f.Payload)-1:]) {
			t.Errorf("frame %d's payload lies in the log window", i)
		}
		for j, g := range r.sent[:i] {
			if within(g.Payload, f.Payload[:1]) || within(f.Payload, g.Payload[:1]) {
				t.Errorf("frames %d and %d share payload bytes", j, i)
			}
		}
	}
	first := r.sent[0].Payload
	if !within(first, rd.reqTail) || !within(first, rd.segment) {
		t.Error("the round's tail and segment are not views of the first frame's payload")
	}
	if !bytes.Equal(rd.segment, seg.Encoded) {
		t.Error("the round's segment is not the window up to its checkpoint")
	}
	_, tail, _ := wire.SplitAuditRequest(first)
	checkRoundSnapshot(t, r.eng, seg.Encoded, tail)

	rLarge, large := round(1 << 20)
	windows := float64(large-small) / float64(len(rLarge.eng.round.segment)-len(rd.segment))
	t.Logf("a round allocates %.2f times its window (%d B for %d, %d B for %d)",
		windows, small, len(rd.segment), large, len(rLarge.eng.round.segment))
	if want := float64(cfg.Fmax + 1); windows < want-0.1 || windows > want+0.25 {
		t.Errorf("a round allocates %.2f times its window, want the %v payloads and nothing else of that size", windows, want)
	}
}

// TestRoundTailSurvivesWindowCompaction: after a round's frames are
// out, the log grows by a thousand entries and the round's checkpoint
// is covered, so MarkCovered moves those entries over the storage the
// segment was read from. A retry must still send the first frame's
// tail, and the first frame's payload must be bit for bit what it was
// when it was sent.
func TestRoundTailSurvivesWindowCompaction(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.TAudit = 0
	r := newDataPathRobot(t, cfg, false)
	// A first, larger round, covered at once: the window's storage is
	// grown, and from here on reused in place.
	r.fill(128 << 10)
	r.eng.startRound(r.now)
	if err := r.eng.log.MarkCovered(r.eng.round.hash, nil); err != nil {
		t.Fatal(err)
	}
	r.now += 8 // refills the a-node's request bucket
	r.fill(16 << 10)
	r.sent = nil
	r.eng.startRound(r.now)
	rd := r.eng.round
	if len(r.sent) != cfg.Fmax+1 || rd.fromBoot {
		t.Fatalf("round sent %d frames (from boot: %v), want %d from a covered start", len(r.sent), rd.fromBoot, cfg.Fmax+1)
	}
	first := r.sent[0]
	sum := sha256.Sum256(first.Payload)
	_, tail, _ := wire.SplitAuditRequest(first.Payload)
	tail = bytes.Clone(tail)

	for n := r.eng.Log().EntryCount() + 1000; r.eng.Log().EntryCount() < n; {
		r.an.RecvWireless(peerFrame(wire.RobotID(2+r.eng.Log().EntryCount()%5), r.now))
	}
	// Covered behind the engine's back, so that the round still retries.
	if err := r.eng.log.MarkCovered(rd.hash, nil); err != nil {
		t.Fatal(err)
	}
	if got := r.eng.Log().EntryCount(); got != 1000 {
		t.Fatalf("%d entries retained after the cover, want the 1000 appended since", got)
	}
	r.sent = nil
	r.now += retryDelay
	r.eng.Tick(r.now)
	if len(r.sent) == 0 {
		t.Fatal("the uncovered round did not retry")
	}
	for i, f := range r.sent {
		_, got, err := wire.SplitAuditRequest(f.Payload)
		if err != nil || !bytes.Equal(got, tail) {
			t.Errorf("retried frame %d (to %d) does not carry the first frame's tail (err %v)", i, f.Dst, err)
		}
		if within(first.Payload, f.Payload[:1]) {
			t.Errorf("retried frame %d shares the first frame's payload", i)
		}
	}
	if sha256.Sum256(first.Payload) != sum {
		t.Error("the first frame's payload changed after it was sent")
	}
	if !bytes.Equal(rd.reqTail, tail) {
		t.Error("the round's tail changed under log growth and compaction")
	}
}

// TestRoundCoveredInsideStartRound: frames delivered the moment they
// are sent, so the auditors' tokens come back — and MarkCovered compacts
// the window — inside startRound's own solicit, between two asks and
// before startRound returns. Every request of every round must still be
// accepted (an auditor replays it against the a-node's chain, so one
// wrong byte is a refusal), and the frames of the last round must
// equal, afterwards, what they were when sent and what the test encodes
// from the round's fields. The covered round itself holds no request
// bytes — not the tail it sent, and not a copy of the window compacted
// under it — and its snapshot carries none.
func TestRoundCoveredInsideStartRound(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Fmax = 1
	h := newHarness(t, cfg, 1, 2, 3)
	type sentRequest struct {
		frame  wire.Frame
		atSend []byte
	}
	var requests []sentRequest
	coveredInStartRound := 0
	h.onSend = func(f wire.Frame) bool {
		if !f.IsAudit() {
			return false // application frames take the queue, as ever
		}
		if f.Src == 1 && wire.PayloadKind(f.Payload) == wire.KindAuditRequest {
			requests = append(requests, sentRequest{f, bytes.Clone(f.Payload)})
		}
		h.anodes[f.Dst].RecvWireless(f)
		return true
	}
	for i := 0; i < 200; i++ {
		started := h.engines[1].Stats().RoundsStarted
		requests = requests[:0]
		h.tick()
		if h.engines[1].Stats().RoundsStarted == started {
			continue
		}
		// Robot 1 started a round this tick, and everything it asked was
		// answered before its Tick returned.
		rd := h.engines[1].round
		if !rd.covered {
			continue // early rounds: fewer than f_max+1 peers heard yet
		}
		coveredInStartRound++
		if len(requests) != cfg.Fmax+1 {
			t.Fatalf("tick %d: a covered round sent %d requests, want %d", h.now, len(requests), cfg.Fmax+1)
		}
		first, err := wire.DecodeAuditRequest(requests[0].atSend)
		if err != nil {
			t.Fatal(err)
		}
		segment := first.Segment // as it left, before the cover
		// More log on top of the compacted window, then look again.
		h.run(3)
		for i, req := range requests {
			if !bytes.Equal(req.frame.Payload, req.atSend) {
				t.Fatalf("tick %d: request %d changed after it was sent", h.now, i)
			}
			if !bytes.Equal(req.atSend, wantRequest(t, rd, req.frame, segment)) {
				t.Fatalf("tick %d: request %d is not the encoding of the round's request", h.now, i)
			}
		}
		if rd.segment != nil || rd.reqTail != nil {
			t.Fatalf("tick %d: the covered round still holds request bytes (segment %d B, tail %d B)",
				h.now, len(rd.segment), len(rd.reqTail))
		}
		checkRoundSnapshot(t, h.engines[1], nil, nil)
	}
	if coveredInStartRound < 8 {
		t.Fatalf("only %d rounds were covered inside startRound: the test exercises nothing", coveredInStartRound)
	}
	for id, eng := range h.engines {
		if st := eng.Stats(); st.AuditsRefused != 0 || st.RoundsCovered+2 < st.RoundsStarted {
			t.Errorf("robot %d: %d audits refused, %d of %d rounds covered", id, st.AuditsRefused, st.RoundsCovered, st.RoundsStarted)
		}
		if h.anodes[id].InSafeMode() {
			t.Errorf("robot %d in safe mode", id)
		}
	}
}

// TestCoveredRoundSnapshotBeforeTheSpareIsReused: covering the current
// round makes the start it was built on the log's spare, so that start
// is the covered round's encStart until the next startRound, whose
// AddCheckpoint encodes into the spare right before it resets the
// round. A snapshot taken in between must carry that start intact: it
// still hashes to what the tokens covering it bind, and an engine
// restored from the snapshot re-encodes the same bytes. The next round's
// checkpoint must then land in that storage at least once, or the test
// has not seen the spare reused.
func TestCoveredRoundSnapshotBeforeTheSpareIsReused(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Fmax = 1
	h := newHarness(t, cfg, 1, 2, 3)
	e := h.engines[1]
	checked, reused := 0, 0
	var spare *byte // the last covered round's start, while nothing has started since
	for i := 0; i < 400 && (checked < 4 || reused == 0); i++ {
		covered, started := e.Stats().RoundsCovered, e.Stats().RoundsStarted
		h.tick()
		rd := e.round
		if e.Stats().RoundsStarted != started {
			if spare != nil && &rd.encEnd[0] == spare {
				reused++
			}
			spare = nil
		}
		if e.Stats().RoundsCovered == covered || !rd.covered || rd.fromBoot {
			continue
		}
		checked++
		spare = &rd.encStart[0]
		startHash := cryptolite.SHA1Sum(rd.encStart)
		if len(rd.startTok) != cfg.Fmax+1 {
			t.Fatalf("tick %d: the round's start is covered by %d tokens, want %d", h.now, len(rd.startTok), cfg.Fmax+1)
		}
		for _, tok := range rd.startTok {
			if tok.HCkpt != startHash {
				t.Fatalf("tick %d: the covered round's start no longer hashes to what auditor %d's token binds", h.now, tok.Auditor)
			}
		}
		blob := e.EncodeState()
		r := NewEngine(1, cfg, factory(), h.snodes[1], h.anodes[1], h.anodes[1].SendWirelessEnc)
		if err := r.RestoreState(blob); err != nil {
			t.Fatalf("tick %d: restore: %v", h.now, err)
		}
		if again := r.EncodeState(); !bytes.Equal(again, blob) {
			t.Fatalf("tick %d: the restored engine re-encodes differently", h.now)
		}
		if !bytes.Equal(r.round.encStart, rd.encStart) {
			t.Fatalf("tick %d: the restored round's start differs", h.now)
		}
	}
	if checked < 4 || reused == 0 {
		t.Fatalf("%d rounds of robot 1 were covered from a covered start and %d next checkpoints reused the start's storage: "+
			"the test checks too little", checked, reused)
	}
}

// TestRoundWithoutARequestOwnsItsSegment: a round that starts with no
// candidate in earshot, or with every ask refused by the a-node's rate
// limiter, has encoded no request, so it takes the one copy of the
// window the round always used to take: reqTail stays nil, the segment
// is the round's own, and the snapshot bytes are what they were. The
// same bytes for a round that did ask, whose segment and tail are views
// of a sent frame. A restored no-request round builds its first request
// from the restored segment.
func TestRoundWithoutARequestOwnsItsSegment(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.TAudit = 0
	for _, tc := range []struct {
		name  string
		setup func(r *dataPathRobot)
		asks  bool
	}{
		{"asked", func(*dataPathRobot) {}, true},
		{"no candidate", func(r *dataPathRobot) {
			r.now += cfg.HeardWindow // the last frame heard is now too old
			r.eng.now = r.now
		}, false},
		{"rate-limited", func(r *dataPathRobot) {
			for ok := true; ok; {
				_, ok = r.an.MakeTokenRequest(2)
			}
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newDataPathRobot(t, cfg, false)
			r.fill(8 << 10)
			tc.setup(r)
			r.sent = nil
			r.eng.startRound(r.now)
			rd := r.eng.round
			seg, err := r.eng.Log().SegmentTo(rd.hash)
			if err != nil {
				t.Fatal(err)
			}
			window := bytes.Clone(seg.Encoded)
			if within(seg.Encoded, rd.segment) {
				t.Fatal("the round's segment is still the log window after startRound")
			}
			if tc.asks {
				if len(r.sent) != cfg.Fmax+1 || rd.reqTail == nil {
					t.Fatalf("round sent %d frames, tail built: %v", len(r.sent), rd.reqTail != nil)
				}
				_, tail, _ := wire.SplitAuditRequest(r.sent[0].Payload)
				checkRoundSnapshot(t, r.eng, window, tail)
				return
			}
			if len(r.sent) != 0 || rd.reqTail != nil {
				t.Fatalf("round sent %d frames, tail built: %v; want neither", len(r.sent), rd.reqTail != nil)
			}
			checkRoundSnapshot(t, r.eng, window, nil)
			blob := r.eng.EncodeState()

			// The copy is the round's: the log moving on does not reach it.
			r.fill(r.eng.Log().StorageBytes() + 8<<10)
			if err := r.eng.log.MarkCovered(rd.hash, nil); err != nil {
				t.Fatal(err)
			}
			r.fill(r.eng.Log().StorageBytes() + 8<<10)
			if !bytes.Equal(rd.segment, window) {
				t.Fatal("the round's own segment changed when the log was compacted")
			}

			// Restore, hear the peers again, and let the retry ask.
			r2 := newDataPathRobot(t, cfg, false)
			if err := r2.eng.RestoreState(blob); err != nil {
				t.Fatal(err)
			}
			rd2 := r2.eng.round
			if rd2.reqTail != nil || !bytes.Equal(rd2.segment, window) {
				t.Fatal("restored round: tail built, or segment differs")
			}
			r2.now = rd2.lastAsk + retryDelay
			r2.eng.now = r2.now
			for id := wire.RobotID(2); id <= 6; id++ {
				r2.an.RecvWireless(peerFrame(id, r2.now))
			}
			r2.sent = nil
			r2.eng.Tick(r2.now)
			if len(r2.sent) != cfg.Fmax+1 {
				t.Fatalf("restored round's retry sent %d frames, want %d", len(r2.sent), cfg.Fmax+1)
			}
			for i, f := range r2.sent {
				if !bytes.Equal(f.Payload, wantRequest(t, rd2, f, window)) {
					t.Errorf("restored round: frame %d is not the encoding of the round's request", i)
				}
			}
			if !within(r2.sent[0].Payload, rd2.segment) || !within(r2.sent[0].Payload, rd2.reqTail) {
				t.Error("restored round: segment and tail are not views of the first frame sent")
			}
			_, tail, _ := wire.SplitAuditRequest(r2.sent[0].Payload)
			checkRoundSnapshot(t, r2.eng, window, tail)
		})
	}
}

// TestRestoredRoundHoldsOneCopy: a round that asked is restored as it
// ran, its segment a view of the end of its tail — one copy, not two —
// and a blob whose segment is not the end of its tail is refused. A
// covered round written the way snapshots were before covered rounds
// let go of their bytes (bit 4 set, segment and tail carried) restores,
// re-encodes without them, and runs on exactly as the current encoding
// of the same round does.
func TestRestoredRoundHoldsOneCopy(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.TAudit = 0
	r := newDataPathRobot(t, cfg, false)
	r.fill(8 << 10)
	r.eng.startRound(r.now)
	rd := r.eng.round
	seg, tail := bytes.Clone(rd.segment), bytes.Clone(rd.reqTail)
	blob := r.eng.EncodeState()
	r2 := newDataPathRobot(t, cfg, false)
	if err := r2.eng.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	rd2 := r2.eng.round
	if !bytes.Equal(rd2.reqTail, tail) || !bytes.Equal(rd2.segment, seg) ||
		&rd2.segment[len(rd2.segment)-1] != &rd2.reqTail[len(rd2.reqTail)-1] {
		t.Fatal("the restored segment is not a view of the end of the restored tail")
	}
	if again := r2.eng.EncodeState(); !bytes.Equal(again, blob) {
		t.Fatal("the restored round re-encodes differently")
	}

	good := roundBlob(rd, seg, tail)
	if !bytes.Contains(blob, good) {
		t.Fatal("the engine's snapshot does not carry the hand-built round encoding")
	}
	flipped := bytes.Clone(seg)
	flipped[len(flipped)-1] ^= 1
	for name, badSeg := range map[string][]byte{
		"differs":          flipped,
		"not at the end":   tail[:len(seg)],
		"longer than tail": append([]byte{0}, tail...),
	} {
		bad := bytes.Replace(blob, good, roundBlob(rd, badSeg, tail), 1)
		if err := r2.eng.RestoreState(bad); err == nil {
			t.Errorf("restore accepted a round whose segment %s", name)
		}
	}

	// The same round, covered: the current encoding, and the older one
	// that still carries the request bytes.
	rd.covered = true
	rd.segment, rd.reqTail = nil, nil
	current := r.eng.EncodeState()
	checkRoundSnapshot(t, r.eng, nil, nil)
	older := bytes.Replace(current, roundBlob(rd, nil, nil), roundBlob(rd, seg, tail), 1)
	if len(older) != len(current)+len(seg)+4+len(tail) {
		t.Fatalf("the older encoding is %d B, want %d more than the current %d", len(older), len(seg)+4+len(tail), len(current))
	}
	var resumed [2]*dataPathRobot
	for k, b := range [][]byte{current, older} {
		resumed[k] = newDataPathRobot(t, cfg, false)
		if err := resumed[k].eng.RestoreState(b); err != nil {
			t.Fatalf("restore of the %s encoding: %v", []string{"current", "older"}[k], err)
		}
		if rd := resumed[k].eng.round; !rd.covered || rd.segment != nil || rd.reqTail != nil {
			t.Fatal("a restored covered round holds request bytes")
		}
		if again := resumed[k].eng.EncodeState(); !bytes.Equal(again, current) {
			t.Fatalf("the restored covered round (%s encoding) does not re-encode as the current one", []string{"current", "older"}[k])
		}
	}
	for _, x := range resumed {
		x.now = r.now
		for i := 0; i < 12; i++ {
			x.step(3)
		}
		for id := wire.RobotID(2); id <= 6; id++ {
			x.an.RecvWireless(peerFrame(id, x.now))
		}
		x.sent = nil
		x.eng.startRound(x.now)
	}
	a, b := resumed[0], resumed[1]
	if len(a.sent) != cfg.Fmax+1 || len(a.sent) != len(b.sent) {
		t.Fatalf("the next rounds sent %d and %d frames, want %d each", len(a.sent), len(b.sent), cfg.Fmax+1)
	}
	for i := range a.sent {
		if !bytes.Equal(a.sent[i].Payload, b.sent[i].Payload) {
			t.Errorf("frame %d of the next round differs between the two encodings' resumes", i)
		}
	}
	sa := a.eng.EncodeState()
	sb := b.eng.EncodeState()
	if !bytes.Equal(sa, sb) {
		t.Error("the two resumes' engines diverged")
	}
}

// TestHeardSetMatchesMapModel holds the engine's heard set — one slice
// of records ascending by ID, written through a last-slot hint —
// to the map it replaced, over frames arriving the way the medium
// delivers them (ascending sender order, tick after tick, with
// newcomers and absentees) and in random order: the same set, the same
// candidates, the same canonical snapshot bytes, and a restore that
// refuses a set whose IDs are out of order or repeated.
func TestHeardSetMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := DefaultConfig(4)
	cfg.TAudit = 0
	for trial := 0; trial < 40; trial++ {
		r := newDataPathRobot(t, cfg, false)
		e := r.eng
		model := make(map[wire.RobotID]wire.Tick)
		for tick := wire.Tick(1); tick < 60; tick++ {
			e.now = tick
			var srcs []wire.RobotID
			for id := wire.RobotID(0); id < 24; id++ {
				if rng.Intn(3) > 0 {
					srcs = append(srcs, id)
				}
			}
			if trial%2 == 1 {
				rng.Shuffle(len(srcs), func(i, j int) { srcs[i], srcs[j] = srcs[j], srcs[i] })
				srcs = append(srcs, wire.Broadcast, srcs[0])
			}
			for _, src := range srcs {
				e.hear(src)
				model[src] = tick
			}
			ids := make([]wire.RobotID, 0, len(model))
			for id := range model {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			if len(e.heard) != len(ids) {
				t.Fatalf("trial %d tick %d: heard set holds %d peers, the map model %d", trial, tick, len(e.heard), len(ids))
			}
			var want []wire.RobotID
			for i, id := range ids {
				if got := e.heard[i]; got.id != id || got.at != model[id] {
					t.Fatalf("trial %d tick %d: heard entry %d is robot %d at %d, the map model has robot %d at %d",
						trial, tick, i, got.id, got.at, id, model[id])
				}
				if id != e.id && id != wire.Broadcast && model[id]+cfg.HeardWindow > tick {
					want = append(want, id)
				}
			}
			if got := e.auditorCandidates(); !slices.Equal(got, want) {
				t.Fatalf("trial %d tick %d: candidates %v, the map model gives %v", trial, tick, got, want)
			}
		}
		blob := e.EncodeState()
		w := wire.NewWriter(0)
		w.U32(uint32(len(e.heard)))
		for _, p := range e.heard {
			w.U16(uint16(p.id))
			w.U64(uint64(model[p.id]))
		}
		if !bytes.HasPrefix(blob, w.Bytes()) {
			t.Fatalf("trial %d: snapshot does not open with the map model's canonical heard set", trial)
		}
		r2 := newDataPathRobot(t, cfg, false)
		if err := r2.eng.RestoreState(blob); err != nil {
			t.Fatalf("trial %d: restore: %v", trial, err)
		}
		if again := r2.eng.EncodeState(); !bytes.Equal(again, blob) {
			t.Fatalf("trial %d: restored engine re-encodes differently", trial)
		}
		// Entry k sits at 4+10k: swap the first two IDs, then repeat the
		// first.
		swapped, dup := bytes.Clone(blob), bytes.Clone(blob)
		copy(swapped[4:6], blob[14:16])
		copy(swapped[14:16], blob[4:6])
		copy(dup[14:16], blob[4:6])
		for name, bad := range map[string][]byte{"descending": swapped, "duplicate": dup} {
			if err := r2.eng.RestoreState(bad); err == nil {
				t.Fatalf("trial %d: restore accepted a heard set with %s IDs", trial, name)
			}
		}
	}
}

// TestInstalledTokensMatchMapModel holds the a-node's token map — one
// slice of records ascending by auditor, written by InstallToken — to
// the map Algorithm 4 describes, tkMap[auditor] ← max(tkMap[auditor],
// t), over tokens minted by real auditors at random auditee times,
// stale ones included: the same fresh-token count at random clock
// readings, and the map model's canonical encoding (count, then
// (auditor, t) ascending) in the a-node's snapshot, right before its
// bucket, Safe-Mode and grace fields.
func TestInstalledTokensMatchMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cfg := DefaultConfig(4)
	cfg.TAudit = 0
	auditors := make(map[wire.RobotID]*trusted.ANode)
	for id := wire.RobotID(2); id < 14; id++ {
		an := trusted.NewANode(cfg.ANodeConfig(), func() wire.Tick { return 0 }, nil, nil, nil, nil)
		an.LoadMasterKey(master, id)
		if !an.LoadMissionKey(sealedKey()) {
			t.Fatal("mission key rejected")
		}
		auditors[id] = an
	}
	// Bucket level, bucket time, Safe-Mode flag and grace deadline.
	const afterMap = 8 + 8 + 1 + 8
	for trial := 0; trial < 20; trial++ {
		r := newDataPathRobot(t, cfg, false)
		model := make(map[wire.RobotID]wire.Tick)
		for op := 0; op < 60; op++ {
			id := wire.RobotID(2 + rng.Intn(12))
			r.now = wire.Tick(rng.Intn(200))
			req, ok := r.an.MakeTokenRequest(id)
			if !ok {
				continue // rate-limited: nothing is installed
			}
			tok, ok := auditors[id].IssueToken(req, cryptolite.ChainHash{byte(op)})
			if !ok || !r.an.InstallToken(tok) {
				t.Fatalf("trial %d op %d: auditor %d's token for t=%d was refused", trial, op, id, req.T)
			}
			if old, seen := model[id]; !seen || req.T > old {
				model[id] = req.T
			}
			r.now = wire.Tick(rng.Intn(260))
			want := 0
			for _, at := range model {
				if at+cfg.TVal > r.now {
					want++
				}
			}
			if got := r.an.ValidTokenCount(); got != want {
				t.Fatalf("trial %d op %d: %d fresh tokens at t=%d, the map model has %d", trial, op, got, r.now, want)
			}
		}
		w := wire.NewWriter(0)
		w.U32(uint32(len(model)))
		for _, id := range wire.SortedIDs(model) {
			w.U16(uint16(id))
			w.U64(uint64(model[id]))
		}
		blob := r.an.EncodeState()
		if end := len(blob) - afterMap; end < w.Len() || !bytes.Equal(blob[end-w.Len():end], w.Bytes()) {
			t.Fatalf("trial %d: the a-node's snapshot does not carry the map model's canonical token map", trial)
		}
	}
}

// TestRestoreRefusesAMisfiledRoundToken: onAuditResponse files each
// token under its own auditor's ID and only if it binds the round's
// checkpoint. A snapshot round whose token is filed under another ID
// would, after a resume, count that auditor twice toward f_max+1 — the
// robot could cover a checkpoint with tokens from f_max auditors or
// fewer — and one binding another checkpoint could never have been
// stored. Restore refuses both, and a round whose tokens are filed
// right restores and re-encodes to its bytes.
func TestRestoreRefusesAMisfiledRoundToken(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.TAudit = 0
	r := newDataPathRobot(t, cfg, false)
	r.fill(1 << 10)
	r.eng.startRound(r.now)
	rd := r.eng.round
	blob := r.eng.EncodeState()
	good := roundBlob(rd, rd.segment, rd.reqTail)
	if !bytes.Contains(blob, good) {
		t.Fatal("the engine's snapshot does not carry the hand-built round encoding")
	}
	tok := func(auditor wire.RobotID, hash [20]byte) wire.Token {
		return wire.Token{Auditor: auditor, Auditee: 1, T: r.now, HCkpt: hash}
	}
	other := rd.hash
	other[0] ^= 1
	asked := modelOf(rd).asked
	with := func(tokens map[wire.RobotID]wire.Token) []byte {
		return bytes.Replace(blob, good, modelRoundBlob(rd, rd.segment, rd.reqTail, roundModel{tokens, asked}), 1)
	}
	r2 := newDataPathRobot(t, cfg, false)
	for name, tokens := range map[string]map[wire.RobotID]wire.Token{
		"filed under another auditor":               {5: tok(7, rd.hash)},
		"filed under its auditor and under another": {5: tok(7, rd.hash), 7: tok(7, rd.hash)},
		"bound to another checkpoint":               {7: tok(7, other)},
	} {
		if err := r2.eng.RestoreState(with(tokens)); err == nil {
			t.Errorf("restore accepted a round with a token %s", name)
		}
	}
	filed := with(map[wire.RobotID]wire.Token{5: tok(5, rd.hash), 7: tok(7, rd.hash)})
	if err := r2.eng.RestoreState(filed); err != nil {
		t.Fatalf("restore refused a round whose tokens are filed under their auditors: %v", err)
	}
	if again := r2.eng.EncodeState(); !bytes.Equal(again, filed) {
		t.Error("the restored round re-encodes differently")
	}
}

// sameTokenStorage reports whether a and b share their first element.
func sameTokenStorage(a, b []wire.Token) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// TestRoundSetsMatchMapModel holds an audit round's two sets — the
// installed tokens, one per auditor ascending, and the auditors asked,
// ascending — to the maps they replaced, over many rounds on the one
// round the engine keeps. Robot 1 is audited among six peers with
// f_max 2; a quarter of its requests and of the responses to it are
// lost, so it retries and re-asks, and the responses that arrive come
// out of order, some twice and some a tick or a round late. After every
// delivery the round holds the model's sets and encodes as the model
// does; a round starts with none of its predecessor's tokens or asks,
// and with the tokens that covered the last covered round as its start
// tokens, in storage shared neither with the log nor with its own
// tokens.
func TestRoundSetsMatchMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := DefaultConfig(4)
	cfg.Fmax = 2
	cfg.BucketCapacity = 1 << 20 // no ask is rate-limited: each is a frame the model sees
	h := newHarness(t, cfg, 1, 2, 3, 4, 5, 6, 7)
	e := h.engines[1]

	var (
		model    = newRoundModel()
		started  uint64       // the RoundsStarted the model is of
		startTok []wire.Token // the model round's start tokens
		logStart []wire.Token // the tokens the last covered round was covered with
		round    *auditRound  // the engine's one round
		held     []wire.Frame // responses to robot 1 not yet delivered
		sends    uint64       // requests robot 1 sent
		covered  int
	)
	// sync starts the model's next round when the engine has started one.
	sync := func() {
		if e.stats.RoundsStarted == started {
			return
		}
		started = e.stats.RoundsStarted
		rd := e.round
		if round != nil && rd != round {
			t.Fatalf("round %d is a new object, not the engine's round reset", started)
		}
		round = rd
		model, startTok = newRoundModel(), logStart
		if len(rd.tokens) != 0 {
			t.Fatalf("round %d starts with %d tokens", started, len(rd.tokens))
		}
		if start := e.log.Start(); sameTokenStorage(rd.startTok, rd.tokens) ||
			(start != nil && sameTokenStorage(rd.startTok, start.Tokens)) {
			t.Fatalf("round %d's start tokens share storage with its tokens or the log's", started)
		}
	}
	check := func(when string) {
		t.Helper()
		rd := e.round
		if rd == nil {
			return
		}
		if got, want := rd.tokens, model.sortedTokens(); !slices.Equal(got, want) {
			t.Fatalf("%s, round %d: %d tokens, the map model has %d (or they differ)", when, started, len(got), len(want))
		}
		if got, want := rd.asked, wire.SortedIDs(model.asked); !slices.Equal(got, want) {
			t.Fatalf("%s, round %d: asked %v, the map model has %v", when, started, got, want)
		}
		if !slices.Equal(rd.startTok, startTok) {
			t.Fatalf("%s, round %d: start tokens are not those that covered the last covered round", when, started)
		}
		w := wire.NewWriter(0)
		encodeAuditRound(w, rd)
		if !bytes.Equal(w.Bytes(), modelRoundBlob(rd, rd.segment, rd.reqTail, model)) {
			t.Fatalf("%s, round %d: the round encodes differently from the map model", when, started)
		}
	}
	h.onSend = func(f wire.Frame) bool {
		switch kind := wire.PayloadKind(f.Payload); {
		case f.IsAudit() && f.Src == 1 && kind == wire.KindAuditRequest:
			sync()
			sends++
			model.asked[f.Dst] = true
			return rng.Intn(4) == 0 // lost
		case f.IsAudit() && f.Dst == 1 && kind == wire.KindAuditResponse:
			if rng.Intn(4) > 0 {
				held = append(held, f)
			}
			return true
		}
		return false
	}
	deliver := func(f wire.Frame) {
		resp, err := wire.DecodeAuditResponse(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		installed, wasCovered := e.stats.TokensInstalled, e.round.covered
		h.anodes[1].RecvWireless(f)
		if e.stats.TokensInstalled != installed {
			model.tokens[resp.Tok.Auditor] = resp.Tok
		}
		if rd := e.round; !wasCovered && rd.covered {
			covered++
			logStart = slices.Clone(rd.tokens)
			if !slices.Equal(e.log.Start().Tokens, logStart) || sameTokenStorage(e.log.Start().Tokens, rd.tokens) {
				t.Fatalf("round %d: the log's covered start does not hold its own copy of the covering tokens", started)
			}
		}
		check("after a response")
	}
	for tick := 0; tick < 480; tick++ {
		h.tick()
		sync()
		check("after a tick")
		rng.Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
		var later []wire.Frame
		for _, f := range held {
			switch rng.Intn(6) {
			case 0:
				later = append(later, f)
				continue
			case 1:
				deliver(f)
			}
			deliver(f)
		}
		held = later
	}
	if e.stats.AuditsRequested != sends {
		t.Fatalf("robot 1 requested %d audits but sent %d requests: the asked model missed some", e.stats.AuditsRequested, sends)
	}
	t.Logf("%d rounds, %d covered, %d tokens installed, %d requests", started, covered, e.stats.TokensInstalled, sends)
	if started < 20 || covered < 10 {
		t.Fatalf("%d rounds started and %d covered: the test exercises too little", started, covered)
	}
}
