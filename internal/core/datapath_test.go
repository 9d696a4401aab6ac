package core

import (
	"bytes"
	"testing"

	"roborebound/internal/auditlog"
	"roborebound/internal/trusted"
	"roborebound/internal/wire"
)

func peerFrame(src wire.RobotID, t wire.Tick) wire.Frame {
	m := wire.StateMsg{Src: src, Time: t, PosX: float32(src), PosY: 1}
	return wire.Frame{Src: src, Dst: wire.Broadcast, Payload: m.Encode()}
}

// dataPathRobot is one engine on real trusted nodes. With fresh set,
// every encoding a node lends is cloned before the engine sees it — the
// data path as it was when each hand-off allocated its own bytes.
type dataPathRobot struct {
	now   wire.Tick
	sn    *trusted.SNode
	an    *trusted.ANode
	eng   *Engine
	fresh bool
	sent  []wire.Frame
}

func newDataPathRobot(t *testing.T, cfg Config, fresh bool) *dataPathRobot {
	t.Helper()
	r := &dataPathRobot{fresh: fresh}
	clock := func() wire.Tick { return r.now }
	r.sn = trusted.NewSNode(cfg.BatchSize, clock)
	r.an = trusted.NewANode(cfg.ANodeConfig(), clock,
		func(f wire.Frame) { r.sent = append(r.sent, f) },
		func(f wire.Frame, enc []byte) { r.eng.OnFrameEnc(f, r.own(enc)) },
		nil, nil)
	r.sn.LoadMasterKey(master, 1)
	r.an.LoadMasterKey(master, 1)
	if !r.sn.LoadMissionKey(sealedKey()) || !r.an.LoadMissionKey(sealedKey()) {
		t.Fatal("mission key rejected")
	}
	r.eng = NewEngine(1, cfg, factory(), r.sn, r.an, func(f wire.Frame) ([]byte, bool) {
		enc, ok := r.an.SendWirelessEnc(f)
		return r.own(enc), ok
	})
	return r
}

func (r *dataPathRobot) own(enc []byte) []byte {
	if r.fresh && enc != nil {
		return bytes.Clone(enc)
	}
	return enc
}

// step is one control period: recvs frames from peers 2 and 3 in turn,
// then the sensor poll (which sends and drives the actuators), then the
// protocol tick.
func (r *dataPathRobot) step(recvs int) {
	for i := 0; i < recvs; i++ {
		r.an.RecvWireless(peerFrame(wire.RobotID(2+i%2), r.now))
	}
	reading := wire.SensorReading{Time: r.now, PosX: 1, PosY: float64(r.now)}
	if fwd, enc, ok := r.sn.PollSensorsEnc(reading); ok {
		r.eng.OnSensorReadingEnc(fwd, r.own(enc))
	}
	r.eng.Tick(r.now)
	r.now++
}

// TestBorrowedEncodingsLogLikeFreshOnes is the borrow rule's regression
// test. The nodes lend the engine bytes that the very next reception,
// send or sensor poll overwrites; the engine must have copied them into
// its log by then. A run on lent bytes and a run on cloned bytes have
// to agree on the log window and on both chain tops, and the window's
// first entries have to be the frames as received, not whatever the
// scratch held last.
func TestBorrowedEncodingsLogLikeFreshOnes(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.TAudit = 0 // no rounds: the test takes its own checkpoint
	var segs [2][]byte
	var tops [2][2]wire.Authenticator
	for k, fresh := range []bool{false, true} {
		r := newDataPathRobot(t, cfg, fresh)
		for i := 0; i < 6; i++ {
			r.step(3)
		}
		authS, okS := r.sn.MakeAuthenticator()
		authA, okA := r.an.MakeAuthenticator()
		if !okS || !okA {
			t.Fatal("keyless nodes")
		}
		cp := auditlog.Checkpoint{Time: r.now, AuthS: authS, AuthA: authA, State: r.eng.Controller().EncodeState()}
		r.eng.Log().AddCheckpoint(cp)
		seg, err := r.eng.Log().SegmentTo(cp.Hash())
		if err != nil {
			t.Fatal(err)
		}
		segs[k], tops[k] = bytes.Clone(seg.Encoded), [2]wire.Authenticator{authS, authA}
	}
	if !bytes.Equal(segs[0], segs[1]) {
		t.Error("log window differs between lent and fresh encodings")
	}
	if tops[0][0].Top != tops[1][0].Top || tops[0][1].Top != tops[1][1].Top {
		t.Error("chain tops differ between lent and fresh encodings")
	}
	entries, err := wire.DecodeLogEntries(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Step 0 received from 2, 3, 2: every later reception went through
	// the receive scratch since.
	first, second := peerFrame(2, 0), peerFrame(3, 0)
	if len(entries) < 4 ||
		entries[0].Kind != wire.EntryRecv || !bytes.Equal(entries[0].Payload, first.Encode()) ||
		entries[1].Kind != wire.EntryRecv || !bytes.Equal(entries[1].Payload, second.Encode()) ||
		entries[3].Kind != wire.EntrySensor {
		t.Errorf("first logged entries are not the frames received and the reading polled: %+v", entries[:min(len(entries), 4)])
	}
	kinds := make(map[uint8]int)
	for _, e := range entries {
		kinds[e.Kind]++
	}
	if kinds[wire.EntrySend] == 0 || kinds[wire.EntryActuator] == 0 {
		t.Errorf("window exercises no send or no actuator command: %v", kinds)
	}
}

// auditRequestOf runs one robot from boot for a fixed number of control
// steps with recvsPerStep receptions each, then starts an audit round
// and returns its request and the number of entries in its segment.
func auditRequestOf(t *testing.T, cfg Config, recvsPerStep int) (wire.AuditRequest, int) {
	t.Helper()
	r := newDataPathRobot(t, cfg, false)
	for i := 0; i < 8; i++ {
		r.step(recvsPerStep)
	}
	r.sent = nil
	r.eng.startRound(r.now)
	for _, f := range r.sent {
		if a, err := wire.DecodeAuditRequest(f.Payload); err == nil {
			entries, err := wire.DecodeLogEntries(a.Segment)
			if err != nil {
				t.Fatal(err)
			}
			return a, len(entries)
		}
	}
	t.Fatal("round sent no audit request")
	return wire.AuditRequest{}, 0
}

// TestCacheMissReplayAllocsIndependentOfSegmentLength: a cache miss
// decodes the segment into the swarm-shared scratch and replays it
// without allocating per entry, so a segment ten times as long costs
// the same number of allocations. Both segments hold the same eight
// control steps (the replica controller allocates its outputs per step);
// they differ in receptions only.
func TestCacheMissReplayAllocsIndependentOfSegmentLength(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.TAudit = 0
	short, nShort := auditRequestOf(t, cfg, 11)
	long, nLong := auditRequestOf(t, cfg, 125)
	if nShort < 100 || nLong < 1000 {
		t.Fatalf("segments hold %d and %d entries, want at least 100 and 1000", nShort, nLong)
	}
	auditor := newDataPathRobot(t, cfg, false)
	auditor.now = 8
	auditor.eng.SetAuditCache(NewAuditCache(8))
	measure := func(a *wire.AuditRequest) float64 {
		if !auditor.eng.verifySegment(a) {
			t.Fatal("honest segment rejected")
		}
		return testing.AllocsPerRun(20, func() { auditor.eng.verifySegment(a) })
	}
	// Longest first, so the shared scratch is at its high-water mark.
	aLong, aShort := measure(&long), measure(&short)
	if aLong != aShort {
		t.Errorf("replaying %d entries allocates %v, %d entries %v: want the same count", nLong, aLong, nShort, aShort)
	}
	t.Logf("cache-miss verifySegment: %v allocations for %d entries, %v for %d", aShort, nShort, aLong, nLong)
}
