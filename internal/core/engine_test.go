package core

import (
	"testing"

	"roborebound/internal/control"
	"roborebound/internal/flocking"
	"roborebound/internal/geom"
	"roborebound/internal/trusted"
	"roborebound/internal/wire"
)

// harness wires N protocol engines to each other with zero-latency
// frame exchange (delivery still passes through each a-node, so chains
// and logs behave exactly as in the full simulation).
type harness struct {
	now     wire.Tick
	engines map[wire.RobotID]*Engine
	anodes  map[wire.RobotID]*trusted.ANode
	snodes  map[wire.RobotID]*trusted.SNode
	// drop drops frames from→to when set (partition injection).
	drop func(from, to wire.RobotID) bool
	// queue defers frames to the next tick, like the real medium.
	queue []wire.Frame
	// onSend, when set, sees every frame at its sender's NIC and
	// returns whether it took it (true: the frame is not queued).
	onSend func(wire.Frame) bool
}

var master = []byte("core-test-master")

func sealedKey() trusted.SealedMissionKey {
	var mission [trusted.MissionKeySize]byte
	copy(mission[:], "core-mission")
	return trusted.SealMissionKey(master, mission, 7, 1)
}

func factory() control.Factory {
	return flocking.Factory{Params: flocking.DefaultParams(4, 4, geom.V(50, 50))}
}

func newHarness(t *testing.T, cfg Config, ids ...wire.RobotID) *harness {
	t.Helper()
	h := &harness{
		engines: make(map[wire.RobotID]*Engine),
		anodes:  make(map[wire.RobotID]*trusted.ANode),
		snodes:  make(map[wire.RobotID]*trusted.SNode),
	}
	clock := func() wire.Tick { return h.now }
	for _, id := range ids {
		id := id
		sn := trusted.NewSNode(cfg.BatchSize, clock)
		var eng *Engine
		an := trusted.NewANode(cfg.ANodeConfig(), clock,
			func(f wire.Frame) {
				if h.onSend == nil || !h.onSend(f) {
					h.queue = append(h.queue, f)
				}
			},
			func(f wire.Frame, enc []byte) { eng.OnFrameEnc(f, enc) },
			nil, nil)
		sn.LoadMasterKey(master, id)
		an.LoadMasterKey(master, id)
		if !sn.LoadMissionKey(sealedKey()) || !an.LoadMissionKey(sealedKey()) {
			t.Fatal("mission key rejected")
		}
		eng = NewEngine(id, cfg, factory(), sn, an, an.SendWirelessEnc)
		h.engines[id] = eng
		h.anodes[id] = an
		h.snodes[id] = sn
	}
	return h
}

// tick runs one round: deliver last tick's frames, sensor-poll and
// protocol-tick every engine.
func (h *harness) tick() {
	frames := h.queue
	h.queue = nil
	for _, f := range frames {
		for id, an := range h.anodes {
			if id == f.Src {
				continue
			}
			if f.Dst != wire.Broadcast && f.Dst != id {
				continue
			}
			if h.drop != nil && h.drop(f.Src, id) {
				continue
			}
			an.RecvWireless(f)
		}
	}
	for id, eng := range h.engines {
		reading := wire.SensorReading{Time: h.now, PosX: float64(id), PosY: float64(id)}
		if fwd, ok := h.snodes[id].PollSensors(reading); ok {
			eng.OnSensorReading(fwd)
		}
		eng.Tick(h.now)
		h.anodes[id].CheckTokens()
	}
	h.now++
}

func (h *harness) run(ticks int) {
	for i := 0; i < ticks; i++ {
		h.tick()
	}
}

func TestRoundsCoverAndTruncate(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Fmax = 1
	h := newHarness(t, cfg, 1, 2, 3)
	h.run(200) // 50 s: ~12 audit rounds

	for id, eng := range h.engines {
		st := eng.Stats()
		if st.RoundsStarted < 10 {
			t.Errorf("robot %d started %d rounds, want ≥10", id, st.RoundsStarted)
		}
		if st.RoundsCovered < st.RoundsStarted-2 {
			t.Errorf("robot %d covered %d/%d rounds", id, st.RoundsCovered, st.RoundsStarted)
		}
		if eng.Log().Truncations() == 0 {
			t.Errorf("robot %d never truncated its log", id)
		}
		if eng.Log().FromBoot() {
			t.Errorf("robot %d log still claims boot start", id)
		}
		if h.anodes[id].InSafeMode() {
			t.Errorf("robot %d wrongly in safe mode", id)
		}
		if st.AuditsRefused != 0 {
			t.Errorf("robot %d refused %d honest audits", id, st.AuditsRefused)
		}
	}
}

func TestStorageBoundedOverLongRun(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Fmax = 1
	h := newHarness(t, cfg, 1, 2, 3)
	h.run(120)
	mid := h.engines[1].Log().StorageBytes()
	h.run(400)
	end := h.engines[1].Log().StorageBytes()
	if end > mid*3 {
		t.Errorf("storage grew from %d to %d; truncation not effective", mid, end)
	}
}

func TestPartitionedRobotEntersSafeMode(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Fmax = 1
	// Four robots so the survivors still have f_max+1 = 2 auditors
	// after the partition.
	h := newHarness(t, cfg, 1, 2, 3, 4)
	h.run(100)
	if h.anodes[1].InSafeMode() {
		t.Fatal("robot 1 dead before partition")
	}
	// Partition robot 1 from everyone: it can no longer be audited.
	h.drop = func(from, to wire.RobotID) bool { return from == 1 || to == 1 }
	h.run(int(cfg.TVal) + int(cfg.TAudit) + 8)
	if !h.anodes[1].InSafeMode() {
		t.Error("partitioned robot never entered safe mode (§3.9 surround attack outcome)")
	}
	if h.anodes[2].InSafeMode() || h.anodes[3].InSafeMode() || h.anodes[4].InSafeMode() {
		t.Error("connected robots wrongly disabled")
	}
}

func TestTooFewAuditorsMeansDeath(t *testing.T) {
	// Fmax=1 needs 2 distinct auditors; with only one peer the robots
	// cannot survive past the grace window. This is the flip side of
	// the token rule: f_max+1 tokens, at least one from a correct robot.
	cfg := DefaultConfig(4)
	cfg.Fmax = 1
	h := newHarness(t, cfg, 1, 2)
	h.run(int(cfg.TVal) + int(cfg.TAudit) + 8)
	if !h.anodes[1].InSafeMode() || !h.anodes[2].InSafeMode() {
		t.Error("robots survived with too few auditors for f_max")
	}
}

func TestSolicitExhaustedCandidatesNoDuplicateAsk(t *testing.T) {
	// Fmax=2 with a single known peer: one solicit pass needs 3 tokens
	// but has 1 candidate, so the candidate list is exhausted and the
	// fallback re-ask loop runs. It must not re-send to the peer the
	// *same* pass just asked — the historical bug sent a duplicate
	// AuditRequest within one tick and double-counted AuditsRequested.
	cfg := DefaultConfig(4)
	cfg.Fmax = 2
	h := newHarness(t, cfg, 1)
	eng := h.engines[1]

	// Make peer 2 a candidate (app traffic marks it heard).
	state := wire.StateMsg{Src: 2, Time: 0}
	eng.OnFrame(wire.Frame{Src: 2, Dst: wire.Broadcast, Payload: state.Encode()})

	// Trigger exactly one audit round (tick ≡ id mod TAudit), whose
	// startRound performs one solicit pass.
	h.now = wire.Tick(1 + cfg.TAudit)
	eng.Tick(h.now)
	if eng.Stats().RoundsStarted != 1 {
		t.Fatal("round did not start")
	}

	requests := 0
	for _, f := range h.queue {
		if f.IsAudit() && wire.PayloadKind(f.Payload) == wire.KindAuditRequest {
			if f.Dst != 2 {
				t.Errorf("audit request to unknown peer %d", f.Dst)
			}
			requests++
		}
	}
	if requests != 1 {
		t.Errorf("one solicit pass sent %d requests to the lone candidate, want exactly 1", requests)
	}
	if got := eng.Stats().AuditsRequested; got != 1 {
		t.Errorf("AuditsRequested = %d after one pass, want 1", got)
	}

	// A *later* pass may legitimately re-ask the still-tokenless peer
	// (it may have been briefly out of range) — the dedupe is
	// per-pass, not per-round.
	h.now += cfg.RetryDelay
	eng.Tick(h.now)
	if got := eng.Stats().AuditsRequested; got != 2 {
		t.Errorf("AuditsRequested = %d after retry pass, want 2", got)
	}
}

func TestMalformedAuditTrafficIgnored(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Fmax = 1
	h := newHarness(t, cfg, 1, 2, 3)
	h.run(40)
	eng := h.engines[1]
	before := eng.Stats()
	// Garbage of every protocol kind, plus misaddressed requests.
	eng.OnFrame(wire.Frame{Src: 2, Dst: 1, Flags: wire.FlagAudit, Payload: []byte{wire.KindAuditRequest, 0xFF}})
	eng.OnFrame(wire.Frame{Src: 2, Dst: 1, Flags: wire.FlagAudit, Payload: []byte{wire.KindAuditResponse}})
	eng.OnFrame(wire.Frame{Src: 2, Dst: 1, Flags: wire.FlagAudit, Payload: nil})
	junk := wire.AuditRequest{Auditee: 2, Auditor: 9 /* not us */}
	eng.OnFrame(wire.Frame{Src: 2, Dst: 1, Flags: wire.FlagAudit, Payload: junk.Encode()})
	selfReq := wire.AuditRequest{Auditee: 1, Auditor: 1, Req: wire.TokenRequest{Auditee: 1, Auditor: 1}}
	eng.OnFrame(wire.Frame{Src: 1, Dst: 1, Flags: wire.FlagAudit, Payload: selfReq.Encode()})
	after := eng.Stats()
	if after.AuditsServed != before.AuditsServed {
		t.Error("junk audit traffic earned a token")
	}
	// The engine must keep working afterwards.
	h.run(40)
	if h.anodes[1].InSafeMode() {
		t.Error("robot died after junk traffic")
	}
}

func TestAuditeeRejectsBogusTokens(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Fmax = 1
	h := newHarness(t, cfg, 1, 2, 3)
	h.run(20)
	eng := h.engines[1]
	before := eng.Stats()
	tokensBefore := h.anodes[1].ValidTokenCount()

	// A compromised auditor returns a token with a forged MAC but the
	// *correct* checkpoint hash — the most convincing garbage it can
	// produce without the mission key.
	hash, ok := eng.CurrentRoundHash()
	if !ok {
		t.Fatal("no round in progress")
	}
	bogus := wire.AuditResponse{Auditor: 99, Auditee: 1, OK: true,
		Tok: wire.Token{Auditor: 99, Auditee: 1, T: h.now, HCkpt: hash}}
	eng.OnFrame(wire.Frame{Src: 99, Dst: 1, Flags: wire.FlagAudit, Payload: bogus.Encode()})

	after := eng.Stats()
	if after.TokensInstalled != before.TokensInstalled {
		t.Error("bogus token installed")
	}
	if after.TokensRejected == before.TokensRejected {
		t.Error("bogus token not counted as rejected")
	}
	if h.anodes[1].ValidTokenCount() != tokensBefore {
		t.Error("a-node token map changed")
	}

	// A token for a stale/unknown checkpoint is silently dropped.
	stale := wire.AuditResponse{Auditor: 2, Auditee: 1, OK: true,
		Tok: wire.Token{Auditor: 2, Auditee: 1, T: h.now}}
	eng.OnFrame(wire.Frame{Src: 2, Dst: 1, Flags: wire.FlagAudit, Payload: stale.Encode()})
	if h.anodes[1].ValidTokenCount() != tokensBefore {
		t.Error("stale-checkpoint token installed")
	}
}

func TestApplicationTrafficLoggedAuditTrafficNot(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Fmax = 1
	h := newHarness(t, cfg, 1, 2, 3)
	h.run(8)
	eng := h.engines[1]
	countBefore := eng.Log().EntryCount()
	// App frame → logged; audit frame → not.
	state := wire.StateMsg{Src: 2, Time: h.now}
	h.anodes[1].RecvWireless(wire.Frame{Src: 2, Dst: wire.Broadcast, Payload: state.Encode()})
	if eng.Log().EntryCount() != countBefore+1 {
		t.Error("application frame not logged")
	}
	h.anodes[1].RecvWireless(wire.Frame{Src: 2, Dst: 1, Flags: wire.FlagAudit, Payload: []byte{0xFF}})
	if eng.Log().EntryCount() != countBefore+1 {
		t.Error("audit frame logged")
	}
}

func TestDefaultConfigShape(t *testing.T) {
	cfg := DefaultConfig(4)
	if cfg.Fmax != 3 {
		t.Errorf("Fmax = %d, want 3 (§5.1)", cfg.Fmax)
	}
	if cfg.TAudit != 16 {
		t.Errorf("TAudit = %d ticks, want 16 (4 s)", cfg.TAudit)
	}
	if cfg.TVal <= cfg.TAudit {
		t.Error("TVal must exceed TAudit or tokens expire between rounds")
	}
	an := cfg.ANodeConfig()
	if an.Fmax != cfg.Fmax || an.TVal != cfg.TVal || an.BatchSize != cfg.BatchSize {
		t.Error("ANodeConfig inconsistent with Config")
	}
}

func TestServeLimitCapsAudits(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Fmax = 1
	cfg.ServeLimit = 3
	h := newHarness(t, cfg, 1, 2, 3)
	h.run(8) // warm up so robot 1 has served some audits already

	// Build one genuine audit request from robot 2's engine state by
	// letting the protocol produce it, then measure how many audits
	// robot 1 is willing to serve in a burst: the budget must cap it.
	servedBefore := h.engines[1].Stats().AuditsServed
	h.run(120)
	servedAfter := h.engines[1].Stats().AuditsServed
	// 30 s at TVal = 10 s gives 3 windows × limit 3 = 9 max.
	if servedAfter-servedBefore > 9 {
		t.Errorf("served %d audits in 30 s, want ≤ 9 under ServeLimit=3",
			servedAfter-servedBefore)
	}
	// A limit *below* the healthy demand (~5 per window here) starves
	// the flock by design — the operator must provision ServeLimit
	// above peers·(f_max+1)·TVal/TAudit / auditors. The default
	// (6·f_max) has ~2× headroom; see the healthy-flock tests.
	starved := 0
	for _, an := range h.anodes {
		if an.InSafeMode() {
			starved++
		}
	}
	if starved == 0 {
		t.Error("under-provisioned serve limit should starve the flock; did the cap bind at all?")
	}
}

func TestServeLimitDisabled(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Fmax = 1
	cfg.ServeLimit = 0
	h := newHarness(t, cfg, 1, 2, 3)
	h.run(100)
	for id, an := range h.anodes {
		if an.InSafeMode() {
			t.Errorf("robot %d died with unlimited serving", id)
		}
	}
}
