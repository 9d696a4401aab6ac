package trusted

import (
	"testing"

	"roborebound/internal/cryptolite"
	"roborebound/internal/wire"
)

var testMaster = []byte("mrs-master-key-material")

func testSealed(seq uint64) SealedMissionKey {
	// A diligent owner mints a fresh mission secret per mission; the
	// multi-mission test depends on that (reusing the secret would let
	// last mission's artifacts verify, by construction).
	var mission [MissionKeySize]byte
	copy(mission[:], "mission-secret-20byte")
	mission[0] = byte(seq)
	return SealMissionKey(testMaster, mission, 0xCAFEBABE+seq, seq)
}

// provisioned returns an s-node and a-node pair for one robot, keyed
// and ready, with a controllable clock.
func provisioned(t *testing.T, id wire.RobotID, now *wire.Tick) (*SNode, *ANode) {
	t.Helper()
	clock := func() wire.Tick { return *now }
	s := NewSNode(DefaultBatchSize, clock)
	a := NewANode(DefaultANodeConfig(4), clock, nil, nil, nil, nil)
	s.LoadMasterKey(testMaster, id)
	a.LoadMasterKey(testMaster, id)
	sealed := testSealed(1)
	if !s.nodeBase.LoadMissionKey(sealed) || !a.LoadMissionKey(sealed) {
		t.Fatal("mission key rejected")
	}
	return s, a
}

// TestMasterKeyIsBurnedOnce: the master key is burned by the first
// LOADMASTERKEY whatever its length — empty, as long as the node holds
// inline, one byte longer (its copy spills to the heap), or the usual
// — and under each a sealed mission key round-trips: it loads, and the
// node's mission MAC is the one the owner keyed.
func TestMasterKeyIsBurnedOnce(t *testing.T) {
	long := func(n int) []byte {
		k := make([]byte, n)
		for i := range k {
			k[i] = byte(7*i + 1)
		}
		return k
	}
	var mission [MissionKeySize]byte
	copy(mission[:], "mission-secret-20byte")
	want := cryptolite.NewLightMACFromSecret(mission[:])
	for _, master := range [][]byte{{}, long(masterKeyStack), long(masterKeyStack + 1), testMaster} {
		s := NewSNode(1, func() wire.Tick { return 0 })
		s.LoadMasterKey(master, 1)
		s.LoadMasterKey([]byte("attacker-key"), 2)
		if s.ID() != 1 {
			t.Errorf("%d-byte master: a second LoadMasterKey overwrote the robot ID", len(master))
		}
		if s.nodeBase.LoadMissionKey(SealMissionKey([]byte("attacker-key"), mission, 5, 1)) {
			t.Errorf("%d-byte master: a second LoadMasterKey overwrote the key", len(master))
		}
		if !s.nodeBase.LoadMissionKey(SealMissionKey(master, mission, 5, 1)) {
			t.Errorf("%d-byte master: mission key sealed under it rejected", len(master))
			continue
		}
		if s.mac != *want {
			t.Errorf("%d-byte master: the loaded mission MAC is not the one the owner keyed", len(master))
		}
	}
}

func TestMissionKeyRejectsForgery(t *testing.T) {
	s := NewSNode(1, func() wire.Tick { return 0 })
	s.LoadMasterKey(testMaster, 1)
	sealed := testSealed(1)
	bad := sealed
	bad.Mac[0] ^= 1
	if s.nodeBase.LoadMissionKey(bad) {
		t.Error("forged MAC accepted")
	}
	bad = sealed
	bad.Blinded[0] ^= 1
	if s.nodeBase.LoadMissionKey(bad) {
		t.Error("tampered blinded key accepted")
	}
	bad = sealed
	bad.R++
	if s.nodeBase.LoadMissionKey(bad) {
		t.Error("tampered nonce accepted")
	}
	if s.HasKey() {
		t.Error("key installed despite rejections")
	}
}

func TestMissionKeyAntiReplay(t *testing.T) {
	s := NewSNode(1, func() wire.Tick { return 0 })
	s.LoadMasterKey(testMaster, 1)
	if !s.nodeBase.LoadMissionKey(testSealed(5)) {
		t.Fatal("fresh key rejected")
	}
	if s.nodeBase.LoadMissionKey(testSealed(5)) {
		t.Error("same-seq replay accepted")
	}
	if s.nodeBase.LoadMissionKey(testSealed(4)) {
		t.Error("old-seq replay accepted")
	}
	if !s.nodeBase.LoadMissionKey(testSealed(6)) {
		t.Error("newer seq rejected")
	}
}

func TestMissionKeyRequiresMaster(t *testing.T) {
	s := NewSNode(1, func() wire.Tick { return 0 })
	if s.nodeBase.LoadMissionKey(testSealed(1)) {
		t.Error("mission key accepted before master key burned")
	}
}

func TestKeylessNodesInert(t *testing.T) {
	now := wire.Tick(0)
	clock := func() wire.Tick { return now }
	s := NewSNode(1, func() wire.Tick { return 0 })
	a := NewANode(DefaultANodeConfig(4), clock, nil, nil, nil, nil)
	if _, _, ok := s.PollSensorsEnc(wire.SensorReading{}); ok {
		t.Error("keyless s-node forwarded sensors")
	}
	if _, ok := a.ActuatorCmdEnc(wire.ActuatorCmd{}); ok {
		t.Error("keyless a-node forwarded actuator command")
	}
	if _, ok := a.SendWirelessEnc(wire.Frame{}); ok {
		t.Error("keyless a-node forwarded frame")
	}
	if _, ok := a.MakeTokenRequest(2); ok {
		t.Error("keyless a-node issued token request")
	}
	if _, ok := s.MakeAuthenticator(); ok {
		t.Error("keyless node produced authenticator")
	}
}

func TestAuthenticatorRoundTrip(t *testing.T) {
	now := wire.Tick(0)
	s, a := provisioned(t, 3, &now)
	s.PollSensorsEnc(wire.SensorReading{Time: 1, PosX: 2})
	auth, ok := s.MakeAuthenticator()
	if !ok {
		t.Fatal("no authenticator")
	}
	if auth.NodeKind != wire.NodeS || auth.ID != 3 {
		t.Errorf("authenticator fields: %+v", auth)
	}
	// Any keyed trusted node in the MRS can check it.
	if !a.CheckAuthenticator(auth) {
		t.Error("genuine authenticator rejected")
	}
	forged := auth
	forged.Top[0] ^= 1
	if a.CheckAuthenticator(forged) {
		t.Error("tampered hash accepted")
	}
	forged = auth
	forged.ID = 4
	if a.CheckAuthenticator(forged) {
		t.Error("re-attributed authenticator accepted")
	}
	forged = auth
	forged.NodeKind = wire.NodeA
	if a.CheckAuthenticator(forged) {
		t.Error("cross-chain (s-as-a) authenticator accepted")
	}
}

func TestChainBatching(t *testing.T) {
	c := NewChain(3)
	top0 := c.Top()
	c.AppendEntry(wire.EntrySensor, []byte("a"))
	c.AppendEntry(wire.EntrySensor, []byte("b"))
	if c.Top() != top0 || c.Pending() != 2 {
		t.Error("chain flushed before batch full")
	}
	c.AppendEntry(wire.EntrySensor, []byte("c"))
	if c.Top() == top0 || c.Pending() != 0 {
		t.Error("chain did not flush at batch size")
	}
	// Flush with empty buffer is a no-op.
	top := c.Top()
	if c.Flush() != top {
		t.Error("empty flush changed top")
	}
}

func TestChainReplicaMatchesNode(t *testing.T) {
	now := wire.Tick(0)
	_, a := provisioned(t, 1, &now)

	frames := []wire.Frame{
		{Src: 2, Dst: wire.Broadcast, Payload: []byte("s1")},
		{Src: 1, Dst: wire.Broadcast, Payload: []byte("s2")},
	}
	a.RecvWireless(frames[0])
	a.SendWirelessEnc(frames[1])
	a.ActuatorCmdEnc(wire.ActuatorCmd{Time: 9, AccX: 1})
	auth, _ := a.MakeAuthenticator()

	// An auditor reconstructing the chain from the log entries must
	// land on exactly the attested top.
	rep := NewChain(DefaultBatchSize)
	rep.AppendEntry(wire.EntryRecv, frames[0].Encode())
	rep.AppendEntry(wire.EntrySend, frames[1].Encode())
	rep.AppendEntry(wire.EntryActuator, (&wire.ActuatorCmd{Time: 9, AccX: 1}).Encode())
	if rep.Flush() != auth.Top {
		t.Error("replica top diverges from a-node authenticator")
	}
}

func TestAuditTrafficNotChained(t *testing.T) {
	now := wire.Tick(0)
	_, a := provisioned(t, 1, &now)
	before, _ := a.MakeAuthenticator()
	a.SendWirelessEnc(wire.Frame{Src: 1, Dst: 2, Flags: wire.FlagAudit, Payload: []byte("audit")})
	a.RecvWireless(wire.Frame{Src: 2, Dst: 1, Flags: wire.FlagAudit, Payload: []byte("audit")})
	after, _ := a.MakeAuthenticator()
	if before.Top != after.Top {
		t.Error("audit-flagged traffic altered the chain (§3.4 violated)")
	}
}

// wired is a Wiring that counts the frames an a-node hands the radio
// and the c-node.
type wired struct{ nic, cnode int }

func (w *wired) ToNIC(wire.Frame)            { w.nic++ }
func (w *wired) ToCNode(wire.Frame, []byte)  { w.cnode++ }
func (w *wired) ToActuator(wire.ActuatorCmd) {}
func (w *wired) SafeMode()                   {}

func TestOversizedNonAuditFrameRefused(t *testing.T) {
	var w wired
	a := new(ANode)
	a.Init(DefaultANodeConfig(4), func() wire.Tick { return 0 }, &w)
	a.LoadMasterKey(testMaster, 1)
	if !a.LoadMissionKey(testSealed(1)) {
		t.Fatal("mission key rejected")
	}
	big := wire.Frame{Src: 1, Dst: 2, Payload: make([]byte, wire.MaxLoggedPayload+1)}
	if _, ok := a.SendWirelessEnc(big); ok || w.nic != 0 {
		t.Error("unloggable frame forwarded")
	}
	a.RecvWireless(big)
	if w.cnode != 0 {
		t.Error("unloggable frame delivered to c-node")
	}
	// Audit-flagged frames of the same size are fine.
	big.Flags = wire.FlagAudit
	if _, ok := a.SendWirelessEnc(big); !ok || w.nic != 1 {
		t.Error("audit frame refused")
	}
	a.RecvWireless(big)
	if w.cnode != 1 {
		t.Error("audit frame not delivered to c-node")
	}
}

// TestNilHooksDrop: an a-node built by NewANode with every hook nil
// forwards nothing and survives everything that would call a hook —
// send, receive, actuate and Safe Mode. The benchmark's drills wire
// their a-nodes this way.
func TestNilHooksDrop(t *testing.T) {
	now := wire.Tick(0)
	_, a := provisioned(t, 1, &now)
	if _, ok := a.SendWirelessEnc(wire.Frame{Src: 1, Dst: wire.Broadcast, Payload: []byte("x")}); !ok {
		t.Error("send refused")
	}
	a.RecvWireless(wire.Frame{Src: 2, Dst: wire.Broadcast, Payload: []byte("y")})
	a.RecvWireless(wire.Frame{Src: 2, Dst: 1, Flags: wire.FlagAudit, Payload: []byte("audit")})
	if _, ok := a.ActuatorCmdEnc(wire.ActuatorCmd{AccX: 1}); !ok {
		t.Error("actuator command refused")
	}
	now = 1000
	a.CheckTokens() // past grace, no tokens → Safe Mode
	if !a.InSafeMode() {
		t.Error("no Safe Mode past grace with no tokens")
	}
}

func TestTokenLifecycle(t *testing.T) {
	now := wire.Tick(100)
	_, auditee := provisioned(t, 1, &now)
	_, auditor := provisioned(t, 2, &now)

	req, ok := auditee.MakeTokenRequest(2)
	if !ok {
		t.Fatal("token request refused")
	}
	if req.Auditee != 1 || req.Auditor != 2 || req.T != 100 {
		t.Errorf("request fields: %+v", req)
	}
	var h cryptolite.ChainHash
	h[0] = 0xAA
	tok, ok := auditor.IssueToken(req, h)
	if !ok {
		t.Fatal("token refused for valid request")
	}
	if !auditee.IsTokenValid(tok) {
		t.Error("genuine token rejected by auditee")
	}
	if !auditor.VerifyToken(tok) {
		t.Error("genuine token rejected by third-party verifier")
	}
	if !auditee.InstallToken(tok) {
		t.Error("genuine token not installed")
	}
	if auditee.ValidTokenCount() != 1 {
		t.Errorf("token count = %d", auditee.ValidTokenCount())
	}
}

func TestTokenForgeryRejected(t *testing.T) {
	now := wire.Tick(100)
	_, auditee := provisioned(t, 1, &now)
	_, auditor := provisioned(t, 2, &now)
	_, other := provisioned(t, 3, &now)

	req, _ := auditee.MakeTokenRequest(2)
	var h cryptolite.ChainHash
	tok, _ := auditor.IssueToken(req, h)

	mutations := map[string]wire.Token{}
	m := tok
	m.Auditor = 9
	mutations["auditor"] = m
	m = tok
	m.Auditee = 9
	mutations["auditee"] = m
	m = tok
	m.T++
	mutations["time"] = m
	m = tok
	m.HCkpt[0] ^= 1
	mutations["checkpoint"] = m
	m = tok
	m.Mac[3] ^= 1
	mutations["mac"] = m
	for field, bad := range mutations {
		if auditee.InstallToken(bad) {
			t.Errorf("token with forged %s installed", field)
		}
		if auditor.VerifyToken(bad) {
			t.Errorf("token with forged %s verified", field)
		}
	}

	// Requests not addressed to the issuer must be refused.
	reqWrongDest, _ := auditee.MakeTokenRequest(7)
	if _, ok := auditor.IssueToken(reqWrongDest, h); ok {
		t.Error("token issued for request addressed elsewhere")
	}
	// Self-requests must be refused (no self-tokens, §3.5).
	selfReq := wire.TokenRequest{Auditee: 2, Auditor: 2, T: now}
	if _, ok := auditor.IssueToken(selfReq, h); ok {
		t.Error("self-token issued")
	}
	// A request whose MAC was minted by a different robot's... cannot
	// exist under a shared mission key, but a *tampered* one must fail.
	badReq := req
	badReq.T++
	if _, ok := auditor.IssueToken(badReq, h); ok {
		t.Error("token issued for tampered request")
	}
	_ = other
}

func TestLeakyBucket(t *testing.T) {
	now := wire.Tick(0)
	cfg := DefaultANodeConfig(4)
	cfg.BucketCapacity = 3
	cfg.Rho = 0.25 // one request per 4 ticks
	clock := func() wire.Tick { return now }
	a := NewANode(cfg, clock, nil, nil, nil, nil)
	a.LoadMasterKey(testMaster, 1)
	a.LoadMissionKey(testSealed(1))

	// Burst up to capacity…
	for i := 0; i < 3; i++ {
		if _, ok := a.MakeTokenRequest(2); !ok {
			t.Fatalf("burst request %d refused", i)
		}
	}
	// …then rate-limited.
	if _, ok := a.MakeTokenRequest(2); ok {
		t.Error("request beyond bucket capacity granted")
	}
	// Refill: after 4 ticks one more unit is available.
	now = 4
	if _, ok := a.MakeTokenRequest(2); !ok {
		t.Error("request refused after refill")
	}
	if _, ok := a.MakeTokenRequest(2); ok {
		t.Error("second request granted without refill")
	}
	// The bucket never exceeds capacity even after a long idle period.
	now = 1000000
	granted := 0
	for i := 0; i < 10; i++ {
		if _, ok := a.MakeTokenRequest(2); ok {
			granted++
		}
	}
	if granted != 3 {
		t.Errorf("granted %d after long idle, want capacity 3", granted)
	}
}

func TestCheckTokensTriggersSafeMode(t *testing.T) {
	now := wire.Tick(0)
	cfg := DefaultANodeConfig(4) // TVal = 40 ticks
	clock := func() wire.Tick { return now }
	fired := false
	a := NewANode(cfg, clock, nil, nil, nil, func() { fired = true })
	a.LoadMasterKey(testMaster, 1)
	a.LoadMissionKey(testSealed(1)) // grace until tick 40

	// Within grace: no tokens needed.
	now = 39
	a.CheckTokens()
	if a.InSafeMode() {
		t.Fatal("safe mode during grace window")
	}
	// Past grace with no tokens: dead.
	now = 40
	a.CheckTokens()
	if !a.InSafeMode() || !fired {
		t.Fatal("safe mode not triggered after grace with no tokens")
	}
	// Safe mode is absorbing: key zeroed, actuators dead.
	if a.HasKey() {
		t.Error("key not zeroed on safe mode")
	}
	if _, ok := a.ActuatorCmdEnc(wire.ActuatorCmd{}); ok {
		t.Error("actuator command forwarded in safe mode")
	}
	if _, ok := a.SendWirelessEnc(wire.Frame{}); ok {
		t.Error("radio TX forwarded in safe mode")
	}
}

func TestCheckTokensFreshness(t *testing.T) {
	now := wire.Tick(0)
	cfg := DefaultANodeConfig(4)
	cfg.Fmax = 1 // needs 2 fresh tokens
	clock := func() wire.Tick { return now }
	auditee := NewANode(cfg, clock, nil, nil, nil, nil)
	auditee.LoadMasterKey(testMaster, 1)
	auditee.LoadMissionKey(testSealed(1))

	mintToken := func(auditorID wire.RobotID) {
		auditor := NewANode(cfg, clock, nil, nil, nil, nil)
		auditor.LoadMasterKey(testMaster, auditorID)
		auditor.LoadMissionKey(testSealed(1))
		req, ok := auditee.MakeTokenRequest(auditorID)
		if !ok {
			t.Fatal("request refused")
		}
		tok, ok := auditor.IssueToken(req, cryptolite.ChainHash{})
		if !ok {
			t.Fatal("token refused")
		}
		if !auditee.InstallToken(tok) {
			t.Fatal("install failed")
		}
	}

	mintToken(2)
	mintToken(3)
	now = 41 // past grace; tokens minted at t=0, TVal=40 ⇒ expired
	a := auditee
	a.CheckTokens()
	if !a.InSafeMode() {
		t.Error("expired tokens should trigger safe mode")
	}

	// Fresh pair from distinct auditors keeps the robot alive.
	now = 0
	auditee2 := NewANode(cfg, clock, nil, nil, nil, nil)
	auditee2.LoadMasterKey(testMaster, 1)
	auditee2.LoadMissionKey(testSealed(1))
	now = 30
	{
		auditor := NewANode(cfg, clock, nil, nil, nil, nil)
		auditor.LoadMasterKey(testMaster, 2)
		auditor.LoadMissionKey(testSealed(1))
		req, _ := auditee2.MakeTokenRequest(2)
		tok, _ := auditor.IssueToken(req, cryptolite.ChainHash{})
		auditee2.InstallToken(tok)

		auditor3 := NewANode(cfg, clock, nil, nil, nil, nil)
		auditor3.LoadMasterKey(testMaster, 3)
		auditor3.LoadMissionKey(testSealed(1))
		req3, _ := auditee2.MakeTokenRequest(3)
		tok3, _ := auditor3.IssueToken(req3, cryptolite.ChainHash{})
		auditee2.InstallToken(tok3)
	}
	now = 45
	auditee2.CheckTokens()
	if auditee2.InSafeMode() {
		t.Error("fresh tokens should keep the robot alive")
	}
	// Duplicate auditor does not count twice.
	if auditee2.ValidTokenCount() != 2 {
		t.Errorf("token count = %d, want 2", auditee2.ValidTokenCount())
	}
}

func TestTokensFromSameAuditorCountOnce(t *testing.T) {
	now := wire.Tick(0)
	cfg := DefaultANodeConfig(4)
	cfg.Fmax = 1
	clock := func() wire.Tick { return now }
	auditee := NewANode(cfg, clock, nil, nil, nil, nil)
	auditee.LoadMasterKey(testMaster, 1)
	auditee.LoadMissionKey(testSealed(1))
	auditor := NewANode(cfg, clock, nil, nil, nil, nil)
	auditor.LoadMasterKey(testMaster, 2)
	auditor.LoadMissionKey(testSealed(1))

	for i := 0; i < 2; i++ {
		req, _ := auditee.MakeTokenRequest(2)
		tok, _ := auditor.IssueToken(req, cryptolite.ChainHash{})
		auditee.InstallToken(tok)
	}
	// Two installs from one auditor yield one live entry — a colluding
	// auditor cannot double-count (§3.5: tokens from f_max+1 *different*
	// robots).
	if auditee.ValidTokenCount() != 1 {
		t.Errorf("token count = %d, want 1", auditee.ValidTokenCount())
	}
	now = 40
	auditee.CheckTokens()
	if !auditee.InSafeMode() {
		t.Error("single-auditor tokens kept robot alive with Fmax=1")
	}
}

func TestSafeModeStopsForwardingHooks(t *testing.T) {
	now := wire.Tick(0)
	clock := func() wire.Tick { return now }
	var sentToNIC, sentToMotor int
	cfg := DefaultANodeConfig(4)
	a := NewANode(cfg, clock,
		func(wire.Frame) { sentToNIC++ },
		nil,
		func(wire.ActuatorCmd) { sentToMotor++ },
		nil)
	a.LoadMasterKey(testMaster, 1)
	a.LoadMissionKey(testSealed(1))
	a.SendWirelessEnc(wire.Frame{Payload: []byte("x")})
	a.ActuatorCmdEnc(wire.ActuatorCmd{})
	if sentToNIC != 1 || sentToMotor != 1 {
		t.Fatalf("hooks not invoked: nic=%d motor=%d", sentToNIC, sentToMotor)
	}
	now = 1000
	a.CheckTokens() // past grace, no tokens → safe mode
	a.SendWirelessEnc(wire.Frame{Payload: []byte("x")})
	a.ActuatorCmdEnc(wire.ActuatorCmd{})
	if sentToNIC != 1 || sentToMotor != 1 {
		t.Error("hooks invoked in safe mode")
	}
}

// TestMultiMissionKeyRotation walks two missions across a power cycle:
// the old sealed key cannot be replayed, old-mission artifacts die
// with the old key, and the freshly keyed nodes work normally.
func TestMultiMissionKeyRotation(t *testing.T) {
	now := wire.Tick(0)
	clock := func() wire.Tick { return now }
	a := NewANode(DefaultANodeConfig(4), clock, nil, nil, nil, nil)
	a.LoadMasterKey(testMaster, 1)

	// Mission 1.
	m1 := testSealed(1)
	if !a.LoadMissionKey(m1) {
		t.Fatal("mission 1 key rejected")
	}
	a.ActuatorCmdEnc(wire.ActuatorCmd{Time: 1})
	oldAuth, ok := a.MakeAuthenticator()
	if !ok {
		t.Fatal("no mission-1 authenticator")
	}
	peer := NewANode(DefaultANodeConfig(4), clock, nil, nil, nil, nil)
	peer.LoadMasterKey(testMaster, 2)
	peer.LoadMissionKey(m1)
	oldReq, _ := a.MakeTokenRequest(2)
	oldTok, ok := peer.IssueToken(oldReq, cryptolite.ChainHash{})
	if !ok {
		t.Fatal("mission-1 token refused")
	}

	// Power cycle between missions.
	a.PowerCycle()
	if a.HasKey() {
		t.Fatal("mission key survived the power cycle")
	}
	if _, ok := a.ActuatorCmdEnc(wire.ActuatorCmd{}); ok {
		t.Fatal("keyless a-node actuated after power cycle")
	}
	// Replaying mission 1's sealed key must fail: flash keySeq persists.
	if a.LoadMissionKey(m1) {
		t.Fatal("old sealed mission key replayed successfully")
	}

	// Mission 2.
	m2 := testSealed(2)
	if !a.LoadMissionKey(m2) {
		t.Fatal("mission 2 key rejected")
	}
	// Artifacts from mission 1 are dead under the new key.
	if a.CheckAuthenticator(oldAuth) {
		t.Error("mission-1 authenticator verified under mission-2 key")
	}
	if a.InstallToken(oldTok) {
		t.Error("mission-1 token installed under mission-2 key")
	}
	// The chain restarted at h₀.
	freshAuth, _ := a.MakeAuthenticator()
	if freshAuth.Top != (cryptolite.ChainHash{}) {
		t.Error("chain did not restart at zero after power cycle")
	}
	// Normal operation resumes: peer re-keys and tokens flow again.
	peer.PowerCycle()
	peer.LoadMissionKey(m2)
	req, ok := a.MakeTokenRequest(2)
	if !ok {
		t.Fatal("mission-2 token request refused")
	}
	tok, ok := peer.IssueToken(req, cryptolite.ChainHash{})
	if !ok {
		t.Fatal("mission-2 token refused")
	}
	if !a.InstallToken(tok) {
		t.Error("mission-2 token rejected")
	}
}

// TestPowerCycleResetsInPlace: a power cycle allocates nothing — the
// chain restarts at h₀ in the storage it had — and wipes the mission
// key's schedules, as Safe Mode does. Re-keyed, the node commits
// exactly as a fresh one does.
func TestPowerCycleResetsInPlace(t *testing.T) {
	now := wire.Tick(0)
	s, a := provisioned(t, 1, &now)
	for i := range 3 {
		s.PollSensorsEnc(wire.SensorReading{Time: wire.Tick(i)})
		a.ActuatorCmdEnc(wire.ActuatorCmd{Time: wire.Tick(i)})
	}
	if allocs := testing.AllocsPerRun(10, func() { s.PowerCycle(); a.PowerCycle() }); allocs != 0 {
		t.Errorf("a power cycle allocates %v objects, want 0", allocs)
	}
	for _, n := range []*nodeBase{&s.nodeBase, &a.nodeBase} {
		if n.chain.Top() != cryptolite.ZeroChain || n.chain.Pending() != 0 {
			t.Errorf("node kind %d: the chain did not restart empty at h₀", n.kind)
		}
		if n.mac != (cryptolite.LightMAC{}) {
			t.Errorf("node kind %d: the mission key's schedules survived the power cycle", n.kind)
		}
	}

	if !a.LoadMissionKey(testSealed(2)) {
		t.Fatal("re-keying after the power cycle failed")
	}
	fresh := NewANode(DefaultANodeConfig(4), func() wire.Tick { return now }, nil, nil, nil, nil)
	fresh.LoadMasterKey(testMaster, 1)
	fresh.LoadMissionKey(testSealed(2))
	for _, n := range []*ANode{a, fresh} {
		n.ActuatorCmdEnc(wire.ActuatorCmd{Time: 9})
	}
	got, _ := a.MakeAuthenticator()
	want, _ := fresh.MakeAuthenticator()
	if got != want {
		t.Error("a power-cycled, re-keyed a-node authenticates differently from a fresh one")
	}

	now = 1000
	a.CheckTokens() // past grace, no tokens → Safe Mode
	if !a.InSafeMode() || a.mac != (cryptolite.LightMAC{}) {
		t.Error("Safe Mode left the mission key's schedules in place")
	}
}

// TestPowerCycleClearsSafeMode: a recovered robot can rejoin the next
// mission after physical inspection — Safe Mode is RAM state, not a
// permanent fuse.
func TestPowerCycleClearsSafeMode(t *testing.T) {
	now := wire.Tick(0)
	clock := func() wire.Tick { return now }
	fired := 0
	a := NewANode(DefaultANodeConfig(4), clock, nil, nil, nil, func() { fired++ })
	a.LoadMasterKey(testMaster, 1)
	a.LoadMissionKey(testSealed(1))
	now = 1000
	a.CheckTokens()
	if !a.InSafeMode() || fired != 1 {
		t.Fatal("robot not disabled")
	}
	a.PowerCycle()
	if a.InSafeMode() {
		t.Fatal("safe mode latched across power cycle")
	}
	if !a.LoadMissionKey(testSealed(2)) {
		t.Fatal("re-keying after recovery failed")
	}
	// Grace window re-arms: no instant re-kill.
	now = 1001
	a.CheckTokens()
	if a.InSafeMode() {
		t.Error("no grace window after power cycle")
	}
}

// TestTrustedCountersAdvance: the Table 1/2 accounting counters move
// with the operations they meter.
func TestTrustedCountersAdvance(t *testing.T) {
	now := wire.Tick(0)
	s, a := provisioned(t, 1, &now)
	m0, h0 := a.MACOps(), a.HashedBytes()
	a.ActuatorCmdEnc(wire.ActuatorCmd{Time: 1})
	if a.HashedBytes() <= h0 {
		t.Error("hashed-bytes counter stuck")
	}
	a.MakeAuthenticator()
	if a.MACOps() <= m0 {
		t.Error("MAC-ops counter stuck")
	}
	s.PollSensorsEnc(wire.SensorReading{})
	if s.HashedBytes() == 0 {
		t.Error("s-node hashed-bytes counter stuck")
	}
}
