package replay

import (
	"errors"
	"testing"

	"roborebound/internal/auditlog"
	"roborebound/internal/control"
	"roborebound/internal/flocking"
	"roborebound/internal/geom"
	"roborebound/internal/trusted"
	"roborebound/internal/wire"
)

// liveRobot simulates an honest c-node with real trusted nodes: it
// produces exactly the artifacts an auditee would ship in an audit
// request.
type liveRobot struct {
	id      wire.RobotID
	factory control.Factory
	ctrl    control.Controller
	snode   *trusted.SNode
	anode   *trusted.ANode
	entries []wire.LogEntry
	now     wire.Tick
}

var master = []byte("replay-test-master")

// testANodeConfig is core.DefaultConfig(wire.TicksPerSecond).ANodeConfig(),
// restated because core imports this package: f_max = 3, T_val = 10 s,
// and a bucket of 16 refilling 4 requests/s.
func testANodeConfig() trusted.ANodeConfig {
	return trusted.ANodeConfig{
		Fmax:           3,
		TVal:           10 * wire.TicksPerSecond,
		BatchSize:      trusted.DefaultBatchSize,
		BucketCapacity: 16,
		Rho:            4.0 / wire.TicksPerSecond,
		MinPerToken:    1,
	}
}

func sealed() trusted.SealedMissionKey {
	var mission [trusted.MissionKeySize]byte
	copy(mission[:], "replay-mission")
	return trusted.SealMissionKey(master, mission, 42, 1)
}

func newLiveRobot(t testing.TB, id wire.RobotID) *liveRobot {
	t.Helper()
	return newLiveRobotWith(t, id, flocking.Factory{Params: flocking.DefaultParams(4, 4, geom.V(100, 100))})
}

func newLiveRobotWith(t testing.TB, id wire.RobotID, f control.Factory) *liveRobot {
	t.Helper()
	r := &liveRobot{id: id, factory: f}
	r.ctrl = f.New(id)
	clock := func() wire.Tick { return r.now }
	r.snode = trusted.NewSNode(trusted.DefaultBatchSize, clock)
	r.anode = trusted.NewANode(testANodeConfig(), clock, nil, nil, nil, nil)
	for _, n := range []interface {
		LoadMasterKey([]byte, wire.RobotID)
		LoadMissionKey(trusted.SealedMissionKey) bool
	}{r.snode, r.anode} {
		n.LoadMasterKey(master, id)
		if !n.LoadMissionKey(sealed()) {
			t.Fatal("mission key rejected")
		}
	}
	return r
}

// step advances one control period: sensor poll through the s-node,
// controller step, outputs through the a-node, all logged.
func (r *liveRobot) step(pos, vel geom.Vec2) {
	reading := wire.SensorReading{Time: r.now,
		PosX: pos.X, PosY: pos.Y, VelX: float32(vel.X), VelY: float32(vel.Y)}
	fwd, _, ok := r.snode.PollSensorsEnc(reading)
	if !ok {
		panic("keyless s-node")
	}
	r.entries = append(r.entries, wire.LogEntry{Kind: wire.EntrySensor, Payload: fwd.Encode()})
	out := r.ctrl.OnSensor(fwd)
	if out.Broadcast != nil {
		f := wire.Frame{Src: r.id, Dst: wire.Broadcast, Payload: out.Broadcast}
		if _, ok := r.anode.SendWirelessEnc(f); ok {
			r.entries = append(r.entries, wire.LogEntry{Kind: wire.EntrySend, Payload: f.Encode()})
		}
	}
	if out.HasCmd {
		if _, ok := r.anode.ActuatorCmdEnc(out.Cmd); ok {
			r.entries = append(r.entries, wire.LogEntry{Kind: wire.EntryActuator, Payload: out.Cmd.Encode()})
		}
	}
	r.now++
}

// recv delivers a peer state message through the a-node.
func (r *liveRobot) recv(f wire.Frame) {
	r.anode.RecvWireless(f)
	if !f.IsAudit() {
		r.entries = append(r.entries, wire.LogEntry{Kind: wire.EntryRecv, Payload: f.Encode()})
		r.ctrl.OnMessage(f.Payload)
	}
}

// checkpoint flushes both chains and snapshots the controller.
func (r *liveRobot) checkpoint() auditlog.Checkpoint {
	authS, _ := r.snode.MakeAuthenticator()
	authA, _ := r.anode.MakeAuthenticator()
	return auditlog.Checkpoint{Time: r.now, AuthS: authS, AuthA: authA, State: r.ctrl.AppendState(nil)}
}

func peerState(src wire.RobotID, t wire.Tick, pos geom.Vec2) wire.Frame {
	m := wire.StateMsg{Src: src, Time: t, PosX: float32(pos.X), PosY: float32(pos.Y)}
	return wire.Frame{Src: src, Dst: wire.Broadcast, Payload: m.Encode()}
}

// buildSegment runs a scripted honest execution from boot and returns
// a valid Request plus the verifier config.
func buildSegment(t *testing.T) (Request, Config, *liveRobot) {
	t.Helper()
	r := newLiveRobot(t, 1)
	for i := 0; i < 12; i++ {
		if i%3 == 1 {
			r.recv(peerState(2, r.now, geom.V(5, float64(i))))
		}
		r.step(geom.V(float64(i)*0.1, 0), geom.V(0.1, 0))
	}
	end := r.checkpoint()
	req := Request{
		Auditee:  1,
		ReqT:     r.now,
		FromBoot: true,
		End:      end,
		Entries:  append([]wire.LogEntry(nil), r.entries...),
	}
	verifier := newLiveRobot(t, 9) // the auditor's own trusted hardware
	cfg := Config{
		Factory:            r.factory,
		BatchSize:          trusted.DefaultBatchSize,
		AuthSlack:          16,
		CheckAuthenticator: verifier.anode.CheckAuthenticator,
	}
	return req, cfg, r
}

// sharedMachine is the one replay machine every test in this package
// replays on, in whatever state the test before left it — a rejected
// segment stops mid-batch, with the replica part-way through it — the
// way an auditor's engine reuses AuditCache's machine across the
// requests it serves.
var sharedMachine Machine

// verifyBoth runs Verify twice, on a machine it allocates itself
// (Config.Machine nil) and on sharedMachine, and requires the same
// verdict, down to the failure's stage, entry and message.
func verifyBoth(t *testing.T, req Request, cfg Config) error {
	t.Helper()
	cfg.Machine = nil
	own := Verify(req, cfg)
	cfg.Machine = &sharedMachine
	shared := Verify(req, cfg)
	if (own == nil) != (shared == nil) || (own != nil && own.Error() != shared.Error()) {
		t.Fatalf("Verify on its own machine returned %v, on a reused one %v", own, shared)
	}
	return own
}

// TestVerifyReusedChainsAfterMidBatchFailure: a replay that is rejected
// part-way leaves its replicas with entries pending in the hasher and a
// top that is not the next segment's. The next replay on the same pair
// — from boot, then from a covered checkpoint — must reposition them
// and reach the verdict it reaches on fresh chains.
func TestVerifyReusedChainsAfterMidBatchFailure(t *testing.T) {
	req, cfg, _ := buildSegment(t)
	var m Machine
	cfg.Machine = &m
	chains := &m.chains

	bad := req
	bad.Entries = append([]wire.LogEntry(nil), req.Entries...)
	// An unknown kind three entries from the end: everything before it
	// has been appended, and 12 steps do not end on a batch boundary.
	bad.Entries[len(bad.Entries)-3] = wire.LogEntry{Kind: 0x7F}
	if Verify(bad, cfg) == nil {
		t.Fatal("segment with an unknown entry kind accepted")
	}
	if chains[0].Pending() == 0 && chains[1].Pending() == 0 {
		t.Fatal("the rejected replay left nothing pending: the test exercises no reset")
	}
	if err := Verify(req, cfg); err != nil {
		t.Fatalf("honest from-boot segment rejected on chains a failed replay left mid-batch: %v", err)
	}

	// And across segments that start elsewhere: an incremental segment on
	// the chains the from-boot replay just finished with, then from boot
	// again.
	r := newLiveRobot(t, 1)
	for i := 0; i < 6; i++ {
		r.step(geom.V(float64(i), 0), geom.Zero2)
	}
	start := r.checkpoint()
	r.entries = nil
	for i := 6; i < 13; i++ {
		r.step(geom.V(float64(i), 0), geom.Zero2)
	}
	inc := Request{Auditee: 1, ReqT: r.now, Start: &start, End: r.checkpoint(), Entries: r.entries}
	if err := Verify(inc, cfg); err != nil {
		t.Fatalf("incremental segment rejected on reused chains: %v", err)
	}
	if err := Verify(req, cfg); err != nil {
		t.Fatalf("from-boot segment rejected after an incremental one on the same chains: %v", err)
	}
}

func TestVerifyHonestSegment(t *testing.T) {
	req, cfg, _ := buildSegment(t)
	if err := verifyBoth(t, req, cfg); err != nil {
		t.Fatalf("honest segment rejected: %v", err)
	}
}

func TestVerifyIncrementalSegment(t *testing.T) {
	// Second segment starting from a covered checkpoint.
	r := newLiveRobot(t, 1)
	for i := 0; i < 6; i++ {
		r.step(geom.V(float64(i), 0), geom.Zero2)
	}
	start := r.checkpoint()
	r.entries = nil // segment 2 begins
	for i := 6; i < 12; i++ {
		if i == 8 {
			r.recv(peerState(3, r.now, geom.V(2, 2)))
		}
		r.step(geom.V(float64(i), 0), geom.Zero2)
	}
	end := r.checkpoint()
	verifier := newLiveRobot(t, 9)
	req := Request{
		Auditee: 1, ReqT: r.now, Start: &start, End: end,
		Entries: r.entries,
	}
	cfg := Config{Factory: r.factory, BatchSize: trusted.DefaultBatchSize,
		AuthSlack: 16, CheckAuthenticator: verifier.anode.CheckAuthenticator}
	if err := verifyBoth(t, req, cfg); err != nil {
		t.Fatalf("incremental segment rejected: %v", err)
	}
}

// Every tampering below must be detected.

func TestVerifyDetectsSensorTampering(t *testing.T) {
	req, cfg, _ := buildSegment(t)
	for i, e := range req.Entries {
		if e.Kind == wire.EntrySensor {
			// Claim the robot saw something else (the "strong wind from
			// the right" evasion of §2.5).
			mut := append([]byte(nil), e.Payload...)
			mut[9] ^= 0x40
			req.Entries[i] = wire.LogEntry{Kind: e.Kind, Payload: mut}
			break
		}
	}
	if verifyBoth(t, req, cfg) == nil {
		t.Fatal("tampered sensor reading accepted")
	}
}

func TestVerifyDetectsOmittedEntry(t *testing.T) {
	req, cfg, _ := buildSegment(t)
	// Drop a recv entry: the a-node chained it, so the chain check fails.
	for i, e := range req.Entries {
		if e.Kind == wire.EntryRecv {
			req.Entries = append(req.Entries[:i], req.Entries[i+1:]...)
			break
		}
	}
	if verifyBoth(t, req, cfg) == nil {
		t.Fatal("omitted recv accepted")
	}
}

func TestVerifyDetectsForgedOutput(t *testing.T) {
	req, cfg, _ := buildSegment(t)
	for i, e := range req.Entries {
		if e.Kind == wire.EntryActuator {
			mut := append([]byte(nil), e.Payload...)
			mut[len(mut)-1] ^= 1 // nudge the commanded acceleration
			req.Entries[i] = wire.LogEntry{Kind: e.Kind, Payload: mut}
			break
		}
	}
	if verifyBoth(t, req, cfg) == nil {
		t.Fatal("forged actuator output accepted")
	}
}

func TestVerifyDetectsInjectedOutput(t *testing.T) {
	req, cfg, _ := buildSegment(t)
	// Insert an actuator command the controller never produced.
	fake := wire.LogEntry{Kind: wire.EntryActuator, Payload: (&wire.ActuatorCmd{Time: 3, AccX: 9}).Encode()}
	req.Entries = append(req.Entries[:4], append([]wire.LogEntry{fake}, req.Entries[4:]...)...)
	if verifyBoth(t, req, cfg) == nil {
		t.Fatal("injected output accepted")
	}
}

func TestVerifyDetectsReordering(t *testing.T) {
	req, cfg, _ := buildSegment(t)
	// Swap two adjacent entries of different kinds.
	for i := 0; i+1 < len(req.Entries); i++ {
		if req.Entries[i].Kind != req.Entries[i+1].Kind {
			req.Entries[i], req.Entries[i+1] = req.Entries[i+1], req.Entries[i]
			break
		}
	}
	if verifyBoth(t, req, cfg) == nil {
		t.Fatal("reordered log accepted")
	}
}

func TestVerifyDetectsTruncatedTail(t *testing.T) {
	req, cfg, _ := buildSegment(t)
	// Hide the most recent activity but keep the fresh authenticator.
	req.Entries = req.Entries[:len(req.Entries)-3]
	if verifyBoth(t, req, cfg) == nil {
		t.Fatal("truncated log accepted")
	}
}

func TestVerifyDetectsStaleAuthenticator(t *testing.T) {
	req, cfg, r := buildSegment(t)
	// The attacker presents a genuinely-signed but old authenticator
	// pair and a matching truncated log — the stale-prefix attack. The
	// freshness check must reject it.
	_ = r
	req.ReqT = req.End.AuthS.T + cfg.AuthSlack + 1
	if err := verifyBoth(t, req, cfg); err == nil {
		t.Fatal("stale authenticator accepted")
	}
}

func TestVerifyDetectsFutureAuthenticator(t *testing.T) {
	req, cfg, _ := buildSegment(t)
	req.ReqT = req.End.AuthS.T - 1
	if verifyBoth(t, req, cfg) == nil {
		t.Fatal("future authenticator accepted")
	}
}

func TestVerifyDetectsWrongAuditee(t *testing.T) {
	req, cfg, _ := buildSegment(t)
	req.Auditee = 2 // present robot 1's artifacts as robot 2's
	if verifyBoth(t, req, cfg) == nil {
		t.Fatal("re-attributed segment accepted")
	}
}

func TestVerifyDetectsForgedAuthMAC(t *testing.T) {
	req, cfg, _ := buildSegment(t)
	req.End.AuthA.Mac[0] ^= 1
	if verifyBoth(t, req, cfg) == nil {
		t.Fatal("forged a-node authenticator accepted")
	}
}

func TestVerifyDetectsSwappedChainAuths(t *testing.T) {
	req, cfg, _ := buildSegment(t)
	req.End.AuthS, req.End.AuthA = req.End.AuthA, req.End.AuthS
	if verifyBoth(t, req, cfg) == nil {
		t.Fatal("swapped s/a authenticators accepted")
	}
}

func TestVerifyDetectsForgedEndState(t *testing.T) {
	req, cfg, _ := buildSegment(t)
	mut := append([]byte(nil), req.End.State...)
	mut[10] ^= 1
	req.End.State = mut
	if verifyBoth(t, req, cfg) == nil {
		t.Fatal("forged end state accepted")
	}
}

func TestVerifyRejectsMissingStart(t *testing.T) {
	req, cfg, _ := buildSegment(t)
	req.FromBoot = false // claims a start checkpoint but provides none
	if verifyBoth(t, req, cfg) == nil {
		t.Fatal("missing start checkpoint accepted")
	}
}

func TestTokensCoverStart(t *testing.T) {
	var h, other [20]byte
	h[0], other[0] = 1, 2
	mk := func(auditor, auditee wire.RobotID, hash [20]byte) wire.Token {
		return wire.Token{Auditor: auditor, Auditee: auditee, HCkpt: hash}
	}
	accept := func(wire.Token) bool { return true }
	reject := func(wire.Token) bool { return false }

	good := []wire.Token{mk(2, 1, h), mk(3, 1, h), mk(4, 1, h)}
	if err := TokensCoverStart(1, h, good, 2, accept); err != nil {
		t.Errorf("valid cover rejected: %v", err)
	}
	if TokensCoverStart(1, h, good[:2], 2, accept) == nil {
		t.Error("too few auditors accepted")
	}
	dup := []wire.Token{mk(2, 1, h), mk(2, 1, h), mk(2, 1, h)}
	if TokensCoverStart(1, h, dup, 2, accept) == nil {
		t.Error("duplicate auditors accepted")
	}
	wrongHash := []wire.Token{mk(2, 1, h), mk(3, 1, other), mk(4, 1, h)}
	if TokensCoverStart(1, h, wrongHash, 2, accept) == nil {
		t.Error("token for different checkpoint accepted")
	}
	wrongTee := []wire.Token{mk(2, 1, h), mk(3, 9, h), mk(4, 1, h)}
	if TokensCoverStart(1, h, wrongTee, 2, accept) == nil {
		t.Error("token issued to another robot accepted")
	}
	selfTok := []wire.Token{mk(1, 1, h), mk(3, 1, h), mk(4, 1, h)}
	if TokensCoverStart(1, h, selfTok, 2, accept) == nil {
		t.Error("self-issued token accepted")
	}
	if TokensCoverStart(1, h, good, 2, reject) == nil {
		t.Error("MAC-rejected tokens accepted")
	}
}

func TestFailureError(t *testing.T) {
	f := &Failure{Stage: "chain", Entry: 3, Msg: "boom"}
	if f.Error() == "" {
		t.Error("empty error string")
	}
	f2 := &Failure{Stage: "state", Entry: -1, Msg: "x"}
	if f2.Error() == "" {
		t.Error("empty error string")
	}
}

// TestStalePrefixAttackWithoutFreshness demonstrates *why* the
// timestamped-authenticator deviation exists (DESIGN.md): with the
// freshness check neutralized (huge AuthSlack), a compromised robot
// can pass every audit forever using a stale-but-genuine authenticator
// pair and a truncated log, hiding all later misbehavior. The attack
// must succeed here — and TestVerifyDetectsStaleAuthenticator shows
// the bounded-slack configuration kills it.
func TestStalePrefixAttackWithoutFreshness(t *testing.T) {
	r := newLiveRobot(t, 1)
	for i := 0; i < 6; i++ {
		r.step(geom.V(float64(i), 0), geom.Zero2)
	}
	// The attacker snapshots its honest prefix...
	staleEnd := r.checkpoint()
	staleEntries := append([]wire.LogEntry(nil), r.entries...)
	// ...then misbehaves: unlogged traffic the a-node chains.
	r.anode.SendWirelessEnc(wire.Frame{Src: 1, Dst: wire.Broadcast, Payload: []byte("spoof!")})
	r.now += 40 // time passes; the robot keeps misbehaving

	verifier := newLiveRobot(t, 9)
	req := Request{
		Auditee:  1,
		ReqT:     r.now, // fresh token request from the a-node
		FromBoot: true,
		End:      staleEnd,
		Entries:  staleEntries,
	}
	lax := Config{Factory: r.factory, BatchSize: trusted.DefaultBatchSize,
		AuthSlack: 1 << 30, CheckAuthenticator: verifier.anode.CheckAuthenticator}
	if err := verifyBoth(t, req, lax); err != nil {
		t.Fatalf("stale-prefix attack should succeed without freshness checks, got: %v", err)
	}
	strict := lax
	strict.AuthSlack = 16
	if verifyBoth(t, req, strict) == nil {
		t.Fatal("bounded AuthSlack failed to stop the stale-prefix attack")
	}
}

// TestVerifyPairsCommandsWithLoggedEntries pins the pairing of the
// replica's actuator commands with the log's actuator entries, in both
// directions and with the exact failure each produces: a logged entry
// no command stands behind, and a command the log does not record.
func TestVerifyPairsCommandsWithLoggedEntries(t *testing.T) {
	honest, cfg, _ := buildSegment(t)
	var actuators []int
	for i, e := range honest.Entries {
		if e.Kind == wire.EntryActuator {
			actuators = append(actuators, i)
		}
	}
	first, last := actuators[0], actuators[len(actuators)-1]
	if last != len(honest.Entries)-1 {
		t.Fatalf("fixture: the segment's last entry is not its last actuator command")
	}
	without := func(i int) []wire.LogEntry {
		return append(append([]wire.LogEntry(nil), honest.Entries[:i]...), honest.Entries[i+1:]...)
	}
	twice := func(i int) []wire.LogEntry {
		return append(append([]wire.LogEntry(nil), honest.Entries[:i+1]...), honest.Entries[i:]...)
	}
	for _, c := range []struct {
		name    string
		entries []wire.LogEntry
		want    Failure
	}{
		{"entry before any control step",
			append([]wire.LogEntry{honest.Entries[first]}, honest.Entries...),
			Failure{"output", 0, "logged output the controller did not produce"}},
		{"entry logged twice", twice(first),
			Failure{"output", first + 1, "logged output the controller did not produce"}},
		{"last entry logged twice", twice(last),
			Failure{"output", last + 1, "logged output the controller did not produce"}},
		{"command never logged, next input follows", without(first),
			Failure{"order", first, "input before prior outputs were logged"}},
		{"last command never logged", without(last),
			Failure{"output", last, "controller produced outputs missing from the log"}},
	} {
		req := honest
		req.Entries = c.entries
		err := verifyBoth(t, req, cfg)
		var f *Failure
		if !errors.As(err, &f) {
			t.Errorf("%s: got %v, want a *Failure", c.name, err)
			continue
		}
		if *f != c.want {
			t.Errorf("%s: rejected with %+v, want %+v", c.name, *f, c.want)
		}
	}
}
