package trusted

import (
	"encoding/binary"

	"roborebound/internal/cryptolite"
	"roborebound/internal/wire"
)

// ANodeConfig carries the protocol parameters the a-node enforces.
type ANodeConfig struct {
	// Fmax is the maximum number of compromised robots tolerated; the
	// a-node demands fresh tokens from Fmax+1 distinct auditors.
	Fmax int
	// TVal is the token validity window (§3.5): if fewer than Fmax+1
	// installed tokens are younger than TVal on the local clock, Safe
	// Mode triggers. This is the "bounded time" of BTI.
	TVal wire.Tick
	// BatchSize is the hash-chain batch size (§3.8).
	BatchSize int
	// Leaky-bucket rate limiter for token requests (Algorithm 4,
	// MAKETOKENREQUEST): the bucket holds at most BucketCapacity units,
	// refills at Rho units per tick, and each token request costs
	// MinPerToken units.
	BucketCapacity float64
	Rho            float64
	MinPerToken    float64
}

// DefaultANodeConfig mirrors the paper's evaluation setup: f_max = 3,
// T_val a little over two audit periods (audits every 4 s must land
// before the previous round's tokens expire), and a bucket generous
// enough for 2·(f_max+1) requests per audit period in bursts.
func DefaultANodeConfig(ticksPerSecond float64) ANodeConfig {
	return ANodeConfig{
		Fmax:           3,
		TVal:           wire.Tick(10 * ticksPerSecond), // 10 s
		BatchSize:      DefaultBatchSize,
		BucketCapacity: 16,
		Rho:            4 / ticksPerSecond, // refills 4 requests/s
		MinPerToken:    1,
	}
}

// ANode is the actuator node (Algorithm 4). It interposes on the
// radio and the actuators: every frame the c-node sends or receives
// and every actuator command passes through it and is committed to its
// hash chain (unless audit-flagged), and it holds the token map whose
// staleness triggers Safe Mode.
type ANode struct {
	nodeBase
	cfg ANodeConfig //rebound:snapshot-skip immutable config, supplied at rebuild

	// The token map (Algorithm 4's tkMap): tkIDs holds the auditors a
	// token is installed from, ascending, and tkAt[i] the newest
	// timestamp installed from tkIDs[i]. Two slices rather than a map
	// because CheckTokens reads every timestamp on every tick of every
	// robot and a token lands a few times per round.
	tkIDs []wire.RobotID
	tkAt  []wire.Tick

	bktLvl        float64
	lastBktUpdate wire.Tick

	safeMode   bool
	graceUntil wire.Tick // token checks start TVal after mission start
	onSafeMode func()    //rebound:snapshot-skip kill-switch wiring, reattached at rebuild

	toNIC      func(wire.Frame)         //rebound:snapshot-skip hardware wiring, reattached at rebuild
	toCNode    func(wire.Frame, []byte) //rebound:snapshot-skip hardware wiring, reattached at rebuild
	toActuator func(wire.ActuatorCmd)   //rebound:snapshot-skip hardware wiring, reattached at rebuild

	// rxEnc and txEnc back the encodings the node lends to the c-node:
	// received frames in one, sent frames and actuator commands in the
	// other. They are separate because the c-node hook runs between a
	// receive's encode and its chain append, and whatever the (possibly
	// compromised) c-node sends from inside that hook must not rewrite
	// the bytes the chain is about to commit.
	rxEnc []byte //rebound:snapshot-skip write-only scratch, no retained state
	txEnc []byte //rebound:snapshot-skip write-only scratch, no retained state
}

// NewANode constructs an a-node. The three forwarding hooks model the
// wiring of Fig. 3 (c-node ↔ radio, c-node ↔ motors); nil hooks drop.
// The c-node hook also receives the received frame's encoding as the
// chain commits it (nil for unchained audit frames), on loan for the
// duration of the call — see RecvWireless. onSafeMode is the
// kill-switch callback; it fires at most once.
func NewANode(cfg ANodeConfig, clock Clock,
	toNIC func(wire.Frame), toCNode func(wire.Frame, []byte), toActuator func(wire.ActuatorCmd),
	onSafeMode func()) *ANode {
	if cfg.BatchSize == 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	return &ANode{
		nodeBase:   newNodeBase(wire.NodeA, cfg.BatchSize, clock),
		cfg:        cfg,
		bktLvl:     cfg.BucketCapacity,
		toNIC:      toNIC,
		toCNode:    toCNode,
		toActuator: toActuator,
		onSafeMode: onSafeMode,
	}
}

// Config returns the node's configuration.
func (a *ANode) Config() ANodeConfig { return a.cfg }

// LoadMissionKey installs the mission key and arms the token deadline:
// the robot has TVal from now to collect its first Fmax+1 tokens.
// Before the key is installed the a-node forwards nothing (§3.3), so a
// robot whose c-node withholds the key stays visibly disabled.
func (a *ANode) LoadMissionKey(sealed SealedMissionKey) bool {
	if !a.nodeBase.LoadMissionKey(sealed) {
		return false
	}
	a.graceUntil = a.clock() + a.cfg.TVal
	return true
}

// InSafeMode reports whether the kill switch has fired.
func (a *ANode) InSafeMode() bool { return a.safeMode }

// PowerCycle models a power cycle: all RAM state — mission key, hash
// chain, token map, rate-limiter bucket, and the Safe Mode latch — is
// reset; flash state persists. A physically recovered robot can thus
// be re-keyed for the next mission, but an adversary replaying last
// mission's sealed key gets nothing (the flash sequence number already
// covers it).
func (a *ANode) PowerCycle() {
	a.powerCycle()
	a.tkIDs, a.tkAt = a.tkIDs[:0], a.tkAt[:0]
	a.bktLvl = a.cfg.BucketCapacity
	a.lastBktUpdate = 0
	a.safeMode = false
	a.graceUntil = 0
}

func (a *ANode) invokeSafeMode() {
	if a.safeMode {
		return
	}
	a.safeMode = true
	a.zeroKey()
	if a.onSafeMode != nil {
		a.onSafeMode()
	}
}

// CheckTokens runs periodically (Algorithm 4): count installed tokens
// younger than TVal on the local clock; if fewer than Fmax+1, zero the
// key and trigger Safe Mode. The check is suppressed during the
// initial grace window — at power-up no tokens can exist yet, and the
// paper's robots likewise have until their first tokens age out.
func (a *ANode) CheckTokens() {
	if !a.HasKey() {
		return
	}
	now := a.clock()
	if now < a.graceUntil {
		return
	}
	if a.freshTokens(now) < a.cfg.Fmax+1 {
		a.invokeSafeMode()
	}
}

// freshTokens counts the installed tokens younger than TVal at now.
func (a *ANode) freshTokens(now wire.Tick) int {
	n := 0
	for _, t := range a.tkAt {
		if t+a.cfg.TVal > now {
			n++
		}
	}
	return n
}

// RecvWireless is triggered on packet reception (Algorithm 4): forward
// to the c-node, and commit the frame to the chain unless it carries
// the audit type bit. The c-node hook receives the exact frame
// encoding the chain commits (nil for audit frames, which are never
// chained). The bytes live in the node's receive buffer and are lent
// for the duration of the hook only: the next reception overwrites
// them, so a c-node that keeps them copies them.
func (a *ANode) RecvWireless(f wire.Frame) {
	if !a.HasKey() {
		return
	}
	if !f.IsAudit() && len(f.Payload) > wire.MaxLoggedPayload {
		return // unloggable frame: refuse to deliver rather than skip the chain
	}
	var enc []byte
	if !f.IsAudit() {
		a.rxEnc = f.AppendEncode(a.rxEnc[:0])
		enc = a.rxEnc
	}
	if a.toCNode != nil {
		a.toCNode(f, enc)
	}
	if enc != nil {
		a.appendToChain(wire.EntryRecv, enc)
	}
}

// SendWireless forwards a frame from the c-node to the radio,
// committing it to the chain unless audit-flagged. Returns whether the
// frame was forwarded.
func (a *ANode) SendWireless(f wire.Frame) bool {
	_, ok := a.SendWirelessEnc(f)
	return ok
}

// SendWirelessEnc is SendWireless returning, additionally, the frame
// encoding the a-node committed to its chain (nil for audit frames,
// which are never chained) — the c-node must log exactly the bytes the
// chain witnessed. The bytes live in the node's send buffer and are
// lent until the next SendWirelessEnc or ActuatorCmdEnc on this node
// overwrites them; a c-node that keeps them copies them.
func (a *ANode) SendWirelessEnc(f wire.Frame) ([]byte, bool) {
	if !a.HasKey() {
		return nil, false
	}
	if !f.IsAudit() && len(f.Payload) > wire.MaxLoggedPayload {
		return nil, false
	}
	if a.toNIC != nil {
		a.toNIC(f)
	}
	if f.IsAudit() {
		return nil, true
	}
	a.txEnc = f.AppendEncode(a.txEnc[:0])
	a.appendToChain(wire.EntrySend, a.txEnc)
	return a.txEnc, true
}

// ActuatorCmd forwards an actuator command and commits it to the
// chain. Returns whether the command reached the motors — false once
// in Safe Mode or before the mission key is installed.
func (a *ANode) ActuatorCmd(cmd wire.ActuatorCmd) bool {
	_, ok := a.ActuatorCmdEnc(cmd)
	return ok
}

// ActuatorCmdEnc is ActuatorCmd returning the command encoding the
// chain witnessed, for the c-node's log. It shares SendWirelessEnc's
// buffer and borrow rule: the bytes are lent until the next
// SendWirelessEnc or ActuatorCmdEnc on this node.
func (a *ANode) ActuatorCmdEnc(cmd wire.ActuatorCmd) ([]byte, bool) {
	if !a.HasKey() {
		return nil, false
	}
	if a.toActuator != nil {
		a.toActuator(cmd)
	}
	a.txEnc = cmd.AppendEncode(a.txEnc[:0])
	a.appendToChain(wire.EntryActuator, a.txEnc)
	return a.txEnc, true
}

const (
	treqMACInputSize  = 1 + 8 + 2 + 2
	tokenMACInputSize = 1 + 2 + 2 + 8 + cryptolite.SHA1Size
)

// treqMACInput lays out TREQ ‖ t ‖ auditee ‖ auditor (see
// authMACInput for why these return arrays).
func treqMACInput(t wire.Tick, auditee, auditor wire.RobotID) (in [treqMACInputSize]byte) {
	in[0] = tagTREQ
	binary.BigEndian.PutUint64(in[1:], uint64(t))
	binary.BigEndian.PutUint16(in[9:], uint16(auditee))
	binary.BigEndian.PutUint16(in[11:], uint16(auditor))
	return in
}

// tokenMACInput lays out TOKEN ‖ auditor ‖ auditee ‖ t ‖ h_ckpt.
func tokenMACInput(auditor, auditee wire.RobotID, t wire.Tick, h cryptolite.ChainHash) (in [tokenMACInputSize]byte) {
	in[0] = tagTOKEN
	binary.BigEndian.PutUint16(in[1:], uint16(auditor))
	binary.BigEndian.PutUint16(in[3:], uint16(auditee))
	binary.BigEndian.PutUint64(in[5:], uint64(t))
	copy(in[13:], h[:])
	return in
}

// MakeTokenRequest issues an a-node-signed audit solicitation
// addressed to dest (Algorithm 4). The leaky bucket caps the rate at ρ
// while allowing bursts up to the bucket capacity — without it,
// compromised robots could mount an audit-DoS (§3.8). ok is false when
// rate-limited or keyless.
func (a *ANode) MakeTokenRequest(dest wire.RobotID) (wire.TokenRequest, bool) {
	if !a.HasKey() {
		return wire.TokenRequest{}, false
	}
	t := a.clock()
	lvl := a.bktLvl + a.cfg.Rho*float64(t-a.lastBktUpdate)
	if lvl > a.cfg.BucketCapacity {
		lvl = a.cfg.BucketCapacity
	}
	a.lastBktUpdate = t
	if lvl < a.cfg.MinPerToken {
		a.bktLvl = lvl
		return wire.TokenRequest{}, false
	}
	a.bktLvl = lvl - a.cfg.MinPerToken
	a.macOps++
	in := treqMACInput(t, a.robID, dest)
	return wire.TokenRequest{
		Auditee: a.robID,
		Auditor: dest,
		T:       t,
		Mac:     a.mac.MAC(in[:]),
	}, true
}

// IssueToken runs on the *auditor's* a-node after a successful audit
// (Algorithm 4): it verifies the auditee's token request (which must
// be addressed to this robot and must not be a self-request) and mints
// a token binding (auditor, auditee, auditee-local time, checkpoint
// hash).
func (a *ANode) IssueToken(req wire.TokenRequest, hCkpt cryptolite.ChainHash) (wire.Token, bool) {
	if !a.HasKey() {
		return wire.Token{}, false
	}
	if req.Auditee == a.robID || req.Auditor != a.robID {
		return wire.Token{}, false
	}
	a.macOps++
	reqIn := treqMACInput(req.T, req.Auditee, a.robID)
	if !a.mac.Verify(reqIn[:], req.Mac) {
		return wire.Token{}, false
	}
	a.macOps++
	tokIn := tokenMACInput(a.robID, req.Auditee, req.T, hCkpt)
	return wire.Token{
		Auditor: a.robID,
		Auditee: req.Auditee,
		T:       req.T,
		HCkpt:   hCkpt,
		Mac:     a.mac.MAC(tokIn[:]),
	}, true
}

// IsTokenValid runs on the *auditee's* a-node: it checks that tok is a
// genuine token for this robot (Algorithm 4).
func (a *ANode) IsTokenValid(tok wire.Token) bool {
	if !a.HasKey() || tok.Auditee != a.robID {
		return false
	}
	a.macOps++
	in := tokenMACInput(tok.Auditor, tok.Auditee, tok.T, tok.HCkpt)
	return a.mac.Verify(in[:], tok.Mac)
}

// VerifyToken checks a token issued to *any* robot of the MRS. The
// auditor needs this to validate the tokens covering an auditee's
// start checkpoint (§3.7); the paper's ISTOKENVALID pseudocode is
// written from the token owner's perspective only, so this is the
// natural generalization (the MAC covers the auditee ID, making the
// explicit-auditee check equally sound).
func (a *ANode) VerifyToken(tok wire.Token) bool {
	if !a.HasKey() {
		return false
	}
	a.macOps++
	in := tokenMACInput(tok.Auditor, tok.Auditee, tok.T, tok.HCkpt)
	return a.mac.Verify(in[:], tok.Mac)
}

// InstallToken validates and records a token (Algorithm 4):
// tkMap[auditor] ← max(tkMap[auditor], t). Returns whether the token
// was installed (a stale duplicate still reports true — it is a valid
// token — it just cannot regress freshness).
//
// The max is load-bearing for BTI: tokens are replayable by design
// (they carry no nonce), so the network — or a griefing peer — can
// re-deliver an auditor's *older* token after a newer one is already
// installed. Freshness lives inside the TCB precisely so that the
// untrusted c-node's round bookkeeping doesn't have to be right; a
// blind overwrite would let a replayed stale token age out
// tkMap[auditor] early and push a perfectly correct robot into Safe
// Mode (a false positive, violating §3.10's "correct robots are never
// disabled"). Timestamps only move forward.
func (a *ANode) InstallToken(tok wire.Token) bool {
	if !a.IsTokenValid(tok) {
		return false
	}
	a.stampToken(tok.Auditor, tok.T)
	return true
}

// stampToken is the token map's one write:
// tkMap[auditor] ← max(tkMap[auditor], t). The slot is found by a
// scan: the map holds one entry per auditor this robot has ever been
// audited by, and a token lands a few times per round.
func (a *ANode) stampToken(auditor wire.RobotID, t wire.Tick) {
	i := 0
	for i < len(a.tkIDs) && a.tkIDs[i] < auditor {
		i++
	}
	if i < len(a.tkIDs) && a.tkIDs[i] == auditor {
		if t > a.tkAt[i] {
			a.tkAt[i] = t
		}
		return
	}
	if cap(a.tkIDs) == 0 {
		// Room for a round's f_max+1 auditors and as many again in one
		// allocation each.
		a.tkIDs, a.tkAt = make([]wire.RobotID, 0, 8), make([]wire.Tick, 0, 8)
	}
	a.tkIDs, a.tkAt = append(a.tkIDs, 0), append(a.tkAt, 0)
	copy(a.tkIDs[i+1:], a.tkIDs[i:])
	copy(a.tkAt[i+1:], a.tkAt[i:])
	a.tkIDs[i], a.tkAt[i] = auditor, t
}

// ValidTokenCount returns how many installed tokens are currently
// fresh; exposed for metrics and tests only.
func (a *ANode) ValidTokenCount() int {
	return a.freshTokens(a.clock())
}
