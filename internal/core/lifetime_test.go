package core

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"
	"weak"

	"roborebound/internal/wire"
)

// These tests own the lifetime rule for a request's bytes (DESIGN.md,
// "Byte ownership on the data path"): the sender's round holds its
// first request's payload until the round is covered, the auditor's
// decode scratch holds views of a request only until replay.Verify
// returns, and nothing else in the engine keeps them. Reachability is
// read through weak pointers: after a collection, a weak pointer to a
// payload is nil exactly when nothing reaches the payload any more.

// collected reports whether the object p points into has been freed.
func collected(p weak.Pointer[byte]) bool {
	runtime.GC()
	runtime.GC()
	return p.Value() == nil
}

// TestCoveredRoundLetsGoOfItsRequest: robot 1's rounds run on the
// queued harness, auditors sharing one audit cache, until four rounds
// have been covered. Once a round is covered and its requests have
// been delivered, every request payload it sent — the first one, whose
// tail the round read its retries from, included — is collectable:
// neither the round nor the auditors' shared decode scratch keeps it.
func TestCoveredRoundLetsGoOfItsRequest(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Fmax = 1
	h := newHarness(t, cfg, 1, 2, 3)
	cache := NewAuditCache(0)
	for _, e := range h.engines {
		e.SetAuditCache(cache)
	}
	var sent []weak.Pointer[byte]
	h.onSend = func(f wire.Frame) bool {
		if f.Src == 1 && wire.PayloadKind(f.Payload) == wire.KindAuditRequest {
			sent = append(sent, weak.Make(&f.Payload[0]))
		}
		return false // queued, delivered next tick
	}
	covered := 0
	for i := 0; i < 400 && covered < 4; i++ {
		h.tick()
		rd := h.engines[1].round
		if rd == nil || !rd.covered || len(sent) == 0 {
			continue
		}
		// Covered while its responses were delivered, at the start of
		// this tick: every request it sent was delivered the tick before.
		covered++
		if rd.reqTail != nil || rd.segment != nil {
			t.Fatalf("tick %d: the covered round still holds %d B of tail and %d B of segment",
				h.now, len(rd.reqTail), len(rd.segment))
		}
		for k, p := range sent {
			if !collected(p) {
				t.Fatalf("tick %d: request %d of %d of a covered round is still reachable", h.now, k, len(sent))
			}
		}
		sent = sent[:0]
	}
	if covered < 4 {
		t.Fatalf("only %d rounds covered: the test exercises nothing", covered)
	}
}

// TestUncoveredRoundKeepsItsRequest: no auditor answers, so the round
// stays open. The first request's payload stays reachable through the
// round — its tail and segment are views of it — after the sender let
// go of every frame, and each retry is a whole request of its own that
// carries that tail behind its own head.
func TestUncoveredRoundKeepsItsRequest(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.TAudit = 0
	r := newDataPathRobot(t, cfg, false)
	r.fill(16 << 10)
	r.sent = nil
	r.eng.startRound(r.now)
	if len(r.sent) != cfg.Fmax+1 {
		t.Fatalf("round sent %d frames, want %d", len(r.sent), cfg.Fmax+1)
	}
	n := len(r.sent[0].Payload)
	first := weak.Make(&r.sent[0].Payload[0])
	r.sent = nil
	if collected(first) {
		t.Fatal("the open round's first request was collected")
	}
	rd := r.eng.round
	if !within(unsafe.Slice(first.Value(), n), rd.reqTail) || !within(rd.reqTail, rd.segment) {
		t.Fatal("the open round's tail and segment are not views of its first request")
	}
	tail := bytes.Clone(rd.reqTail)

	r.now += retryDelay
	r.eng.now = r.now
	for id := wire.RobotID(2); id <= 6; id++ {
		r.an.RecvWireless(peerFrame(id, r.now))
	}
	r.eng.Tick(r.now)
	if len(r.sent) == 0 {
		t.Fatal("the open round did not retry")
	}
	for i, f := range r.sent {
		if _, err := wire.DecodeAuditRequest(f.Payload); err != nil {
			t.Errorf("retry %d does not decode as one whole request: %v", i, err)
		}
		if _, got, _ := wire.SplitAuditRequest(f.Payload); !bytes.Equal(got, tail) {
			t.Errorf("retry %d does not carry the first request's tail", i)
		}
		if within(unsafe.Slice(first.Value(), n), f.Payload[:1]) {
			t.Errorf("retry %d shares the first request's payload", i)
		}
	}
}

// TestCacheMissReleasesItsScratch: a cache miss decodes a request's
// segment into the cache's scratch, whose entries view the payload.
// After the serve returns, the scratch — all of its capacity, not only
// its length — reaches no payload, and the request is collectable.
func TestCacheMissReleasesItsScratch(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.TAudit = 0
	r := newDataPathRobot(t, cfg, false)
	r.fill(8 << 10)
	r.sent = nil
	r.eng.startRound(r.now)
	if len(r.sent) == 0 {
		t.Fatal("the round sent nothing")
	}
	f := r.sent[0]
	payload := weak.Make(&f.Payload[0])
	r.sent = nil
	r.eng.round = nil // the sender's round let go, as a covered one does

	h := newHarness(t, cfg, f.Dst)
	cache := NewAuditCache(0)
	auditor := h.engines[f.Dst]
	auditor.SetAuditCache(cache)
	h.now = r.now
	auditor.now = r.now
	h.anodes[f.Dst].RecvWireless(f)
	f = wire.Frame{}
	if _, misses := cache.HitsMisses(); misses != 1 || auditor.Stats().AuditsServed != 1 {
		t.Fatalf("%d misses, %d served: want the request replayed and served once", misses, auditor.Stats().AuditsServed)
	}
	if cap(cache.miss.entries) == 0 {
		t.Fatal("the miss decoded nothing into the scratch")
	}
	for k, en := range cache.miss.entries[:cap(cache.miss.entries)] {
		if en.Payload != nil {
			t.Fatalf("scratch entry %d still views the request", k)
		}
	}
	if !collected(payload) {
		t.Error("the served request is still reachable")
	}
}

// TestReleaseSegmentClearsAFailedDecode: a segment that fails to decode
// part way has already written views of it into the scratch beyond the
// length decodeSegment hands back; releaseSegment clears those too.
func TestReleaseSegmentClearsAFailedDecode(t *testing.T) {
	var seg []byte
	for i := 0; i < 8; i++ {
		seg = wire.AppendLogEntry(seg, &wire.LogEntry{Kind: wire.EntryMark, Payload: []byte{byte(i)}})
	}
	seg = append(seg, 0xFF, 0) // an entry of an unknown kind
	c := NewAuditCache(0)
	if _, err := c.decodeSegment(seg); err == nil {
		t.Fatal("a segment ending in an unknown entry kind decoded")
	}
	c.releaseSegment()
	if cap(c.miss.entries) < 8 {
		t.Fatalf("the failed decode left %d entries of capacity, want the 8 it wrote", cap(c.miss.entries))
	}
	for k, en := range c.miss.entries[:cap(c.miss.entries)] {
		if en.Payload != nil {
			t.Fatalf("scratch entry %d still views the failed segment", k)
		}
	}
}

// TestReplayMachineKeepsNoRequest: an auditor with a fresh cache serves
// a request from a covered checkpoint: a miss, accepted by a replay on
// the cache's machine, which keeps the replica of the auditee and its
// replayed end state. Nothing in the machine, the engine or the cache
// reaches the request's payload afterwards: not the segment, and not
// the start checkpoint whose state the replica was loaded from.
func TestReplayMachineKeepsNoRequest(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Fmax = 1
	h := newHarness(t, cfg, 1, 2, 3)
	shared := NewAuditCache(0)
	for _, e := range h.engines {
		e.SetAuditCache(shared)
	}
	var held wire.Frame
	h.onSend = func(f wire.Frame) bool {
		if held.Payload != nil || f.Src != 1 || wire.PayloadKind(f.Payload) != wire.KindAuditRequest {
			return false
		}
		if a, err := wire.DecodeAuditRequest(f.Payload); err == nil && !a.FromBoot {
			held = f
			return true // the test delivers it
		}
		return false
	}
	for i := 0; i < 400 && held.Payload == nil; i++ {
		h.tick()
	}
	if held.Payload == nil {
		t.Fatal("robot 1 sent no request from a covered checkpoint")
	}
	h.onSend = nil
	payload := weak.Make(&held.Payload[0])
	h.engines[1].round = nil // the sender's round let go, as a covered one does

	cache := NewAuditCache(0)
	auditor := h.engines[held.Dst]
	auditor.SetAuditCache(cache)
	served := auditor.Stats().AuditsServed
	h.anodes[held.Dst].RecvWireless(held)
	held = wire.Frame{}
	if _, misses := cache.HitsMisses(); misses != 1 || auditor.Stats().AuditsServed != served+1 {
		t.Fatalf("%d misses, %d served: want the request replayed and served once", misses, auditor.Stats().AuditsServed-served)
	}
	if !collected(payload) {
		t.Error("the served request is still reachable")
	}
}

// TestRefusedRequestLeavesNoView: an auditor whose serve budget is
// spent decodes a request whole before refusing it (one whose tail
// does not decode is dropped, not refused), into the request scratch it
// keeps. Once onAuditRequest returns the scratch holds no view of the
// payload — only its start-token storage, for the next request — and
// the refused request is collectable.
func TestRefusedRequestLeavesNoView(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.TAudit = 0
	r := newDataPathRobot(t, cfg, false)
	r.fill(4 << 10)
	// Cover a first round, so the next one's requests carry start tokens.
	r.eng.startRound(r.now)
	covering := []wire.Token{{Auditor: 2, Auditee: 1}, {Auditor: 3, Auditee: 1}}
	if err := r.eng.log.MarkCovered(r.eng.round.hash, covering); err != nil {
		t.Fatal(err)
	}
	r.fill(8 << 10)
	r.sent = nil
	r.eng.startRound(r.now)
	if len(r.sent) == 0 {
		t.Fatal("the round sent nothing")
	}
	f := r.sent[len(r.sent)-1]
	if a, err := wire.DecodeAuditRequest(f.Payload); err != nil || len(a.StartTokens) != len(covering) {
		t.Fatalf("the request does not carry the %d covering tokens (err %v)", len(covering), err)
	}
	payload := weak.Make(&f.Payload[0])
	r.sent = nil
	r.eng.round = nil // the sender's round let go, as a covered one does

	h := newHarness(t, cfg, f.Dst)
	auditor := h.engines[f.Dst]
	h.now = r.now
	auditor.now = r.now
	for len(auditor.served) < cfg.ServeLimit {
		auditor.served = append(auditor.served, r.now)
	}
	h.anodes[f.Dst].RecvWireless(f)
	f = wire.Frame{}
	if st := auditor.Stats(); st.AuditsRefused != 1 || st.AuditsServed != 0 {
		t.Fatalf("%d refused, %d served: want the request decoded and refused", st.AuditsRefused, st.AuditsServed)
	}
	a := auditor.request
	if a.StartCheckpoint != nil || a.EndCheckpoint != nil || a.Segment != nil || len(a.StartTokens) != 0 {
		t.Fatal("the auditor's request scratch still views the refused request")
	}
	if cap(a.StartTokens) < len(covering) {
		t.Error("the refused decode did not keep its start-token storage")
	}
	if !collected(payload) {
		t.Error("the refused request is still reachable")
	}
}
