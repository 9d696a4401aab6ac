package core

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"roborebound/internal/auditlog"
	"roborebound/internal/control"
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
	return newDataPathRobotWith(t, cfg, fresh, factory())
}

func newDataPathRobotWith(t *testing.T, cfg Config, fresh bool, f control.Factory) *dataPathRobot {
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
	r.eng = NewEngine(1, cfg, f, r.sn, r.an, func(f wire.Frame) ([]byte, bool) {
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
		cp := auditlog.Checkpoint{Time: r.now, AuthS: authS, AuthA: authA, State: r.eng.Controller().AppendState(nil)}
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

// auditRequestOf runs one robot from boot for steps control steps with
// recvsPerStep receptions each, then starts an audit round and returns
// its request and how many entries, and how many broadcasts among
// them, its segment holds.
func auditRequestOf(t *testing.T, cfg Config, steps, recvsPerStep int) (a wire.AuditRequest, entries, broadcasts int) {
	t.Helper()
	r := newDataPathRobot(t, cfg, false)
	for i := 0; i < steps; i++ {
		r.step(recvsPerStep)
	}
	r.sent = nil
	r.eng.startRound(r.now)
	for _, f := range r.sent {
		if a, err := wire.DecodeAuditRequest(f.Payload); err == nil {
			logged, err := wire.DecodeLogEntries(a.Segment)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range logged {
				if e.Kind == wire.EntrySend {
					broadcasts++
				}
			}
			return a, len(logged), broadcasts
		}
	}
	t.Fatal("round sent no audit request")
	return wire.AuditRequest{}, 0, 0
}

// TestCacheMissReplayAllocsIndependentOfSegmentLength: a cache miss
// decodes the segment into the swarm-shared scratch and replays it on
// the cache's machine, whose replica encodes its broadcasts into its
// own scratch, so once the scratch and the machine are warm a miss
// allocates nothing, for a segment ten times as long, holding half as
// many control steps again, as for a short one. The segments hold the
// same two broadcast ticks (robot 1 keys up at t=1 and t=7 of every 6)
// and differ in receptions and in quiet control steps.
func TestCacheMissReplayAllocsIndependentOfSegmentLength(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.TAudit = 0
	short, nShort, bShort := auditRequestOf(t, cfg, 8, 11)
	long, nLong, bLong := auditRequestOf(t, cfg, 12, 125)
	if nShort < 100 || nLong < 1000 {
		t.Fatalf("segments hold %d and %d entries, want at least 100 and 1000", nShort, nLong)
	}
	if bShort != bLong || bShort == 0 {
		t.Fatalf("segments hold %d and %d broadcasts, want the same nonzero number", bShort, bLong)
	}
	auditor := newDataPathRobot(t, cfg, false)
	auditor.now = 12
	auditor.eng.SetAuditCache(NewAuditCache(8))
	measure := func(a *wire.AuditRequest) float64 {
		if !auditor.eng.verifySegment(a) {
			t.Fatal("honest segment rejected")
		}
		return testing.AllocsPerRun(20, func() { auditor.eng.verifySegment(a) })
	}
	// Longest first, so the shared scratch is at its high-water mark.
	aLong, aShort := measure(&long), measure(&short)
	if aLong != 0 || aShort != 0 {
		t.Errorf("replaying %d entries allocates %v, %d entries %v: want none", nLong, aLong, nShort, aShort)
	}
	t.Logf("cache-miss verifySegment: %v allocations for %d entries, %v for %d", aShort, nShort, aLong, nLong)
}

// TestHearAllocFree pins the per-frame heard-set update at zero
// allocations once a stable set of peers has been heard: hearing them
// again in ascending order rides the hint, and in descending order
// takes the binary search, and neither may grow the set.
func TestHearAllocFree(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.TAudit = 0
	r := newDataPathRobot(t, cfg, false)
	hearAll := func() {
		for id := wire.RobotID(2); id < 22; id++ {
			r.eng.hear(id)
		}
		for id := wire.RobotID(21); id >= 2; id-- {
			r.eng.hear(id)
		}
	}
	hearAll()
	if n := testing.AllocsPerRun(100, hearAll); n != 0 {
		t.Errorf("hearing a stable 20-peer set allocates %v per pass, want 0", n)
	}
	if len(r.eng.heardIDs) != 20 {
		t.Fatalf("heard set holds %d peers, want 20", len(r.eng.heardIDs))
	}
}

// blobController is a controller whose whole state is one shared blob:
// AppendState to nil hands it out without allocating, so every byte a
// round allocates in proportion to the state's size is a copy the
// engine or the log made.
type blobController struct{ state []byte }

func (blobController) OnSensor(wire.SensorReading) control.Outputs { return control.Outputs{} }
func (blobController) OnMessage([]byte)                            {}
func (c blobController) AppendState(dst []byte) []byte {
	if dst == nil {
		return c.state
	}
	return append(dst, c.state...)
}

func (c blobController) New(wire.RobotID) control.Controller { return c }
func (c blobController) Load(control.Controller, wire.RobotID, []byte) (control.Controller, error) {
	return c, nil
}

// TestStartRoundEncodesTheCheckpointOnce counts checkpoint encodings by
// what they cost: a round started with no auditor in earshot sends
// nothing, so the only allocations that grow with the controller's
// state are copies of the checkpoint. Between a 32 KiB and a 96 KiB
// state (both whole pages, so size classes round nothing) a round must
// allocate exactly one state's difference more — it was three when
// AddCheckpoint, startRound's cp.Hash() and its cp.Encode() each
// encoded, and a covered checkpoint was encoded a fourth time as the
// next round's start.
func TestStartRoundEncodesTheCheckpointOnce(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.TAudit = 0
	const rounds = 8
	bytesPerRound := func(stateSize int) float64 {
		r := newDataPathRobotWith(t, cfg, false, blobController{state: make([]byte, stateSize)})
		r.eng.startRound(r.now) // grows the log's and the nodes' buffers
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			r.now++
			r.eng.startRound(r.now)
		}
		runtime.ReadMemStats(&after)
		if got := r.eng.Log().PendingCheckpoints(); got != rounds+1 {
			t.Fatalf("%d pending checkpoints after %d rounds", got, rounds+1)
		}
		if len(r.sent) != 0 {
			t.Fatalf("a round with no candidates sent %d frames", len(r.sent))
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / rounds
	}
	const small, large = 32 << 10, 96 << 10
	copies := (bytesPerRound(large) - bytesPerRound(small)) / (large - small)
	t.Logf("a round copies the controller state %.3f times", copies)
	if copies < 0.95 || copies > 1.05 {
		t.Errorf("a round copies the controller state %.2f times, want exactly once (the checkpoint's one encoding)", copies)
	}
}

// TestSolicitAsksInRotatedOrderFromScratch: the candidate list lives in
// engine scratch and is rotated in place (the first off IDs repeated
// after the last, a window taken). Rounds with growing and shrinking
// peer sets, so the scratch holds stale IDs past its end, must still
// ask exactly the first f_max+1 of: heard peers ascending, rotated left
// by (rounds·(f_max+1) + 7·id) mod n.
func TestSolicitAsksInRotatedOrderFromScratch(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.TAudit = 0
	r := newDataPathRobot(t, cfg, false)
	for round, peers := range [][]wire.RobotID{
		{9, 4, 7, 2, 30, 12, 5},
		{4, 2},
		{40, 3, 8, 21, 6, 2, 11, 19, 5},
		{17},
		{2, 3, 4, 5, 6},
	} {
		r.now += 8 // refills the a-node's request bucket
		r.eng.heardIDs, r.eng.heardAt = nil, nil
		r.eng.now = r.now
		for _, id := range peers {
			r.eng.hear(id)
		}
		r.sent = nil
		r.eng.startRound(r.now)

		sorted := slices.Clone(peers)
		slices.Sort(sorted)
		n := len(sorted)
		off := ((round+1)*(1+cfg.Fmax) + 7) % n // robot 1; e.rounds counts this round
		var want []wire.RobotID
		for i := 0; i < min(n, cfg.Fmax+1); i++ {
			want = append(want, sorted[(off+i)%n])
		}
		var got []wire.RobotID
		for _, f := range r.sent {
			got = append(got, f.Dst)
		}
		if !slices.Equal(got, want) {
			t.Errorf("round %d over peers %v asked %v, want %v", round+1, sorted, got, want)
		}
	}
}
