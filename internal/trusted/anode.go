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

	// The token map (Algorithm 4's tkMap): one record per auditor a
	// token is installed from, ascending by auditor, each with the
	// newest timestamp installed from it. A slice rather than a map
	// because CheckTokens reads every timestamp on every tick of every
	// robot and a token lands a few times per round.
	tk []tokenStamp

	bktLvl        float64
	lastBktUpdate wire.Tick

	safeMode   bool
	graceUntil wire.Tick // token checks start TVal after mission start

	wiring Wiring //rebound:snapshot-skip hardware wiring, reattached at rebuild

	// rxEnc and txEnc back the encodings the node lends to the c-node:
	// received frames in one, sent frames and actuator commands in the
	// other. They are separate because the c-node hook runs between a
	// receive's encode and its chain append, and whatever the (possibly
	// compromised) c-node sends from inside that hook must not rewrite
	// the bytes the chain is about to commit. Each holds the largest
	// entry the chain commits, since a frame whose encoding would not fit
	// one is refused (an actuator command is smaller), and is an array,
	// not a slice into one, so a node copied by value aliases nothing.
	rxEnc [wire.MaxLoggedPayload]byte //rebound:snapshot-skip write-only scratch, no retained state
	txEnc [wire.MaxLoggedPayload]byte //rebound:snapshot-skip write-only scratch, no retained state
}

// tokenStamp is one entry of the token map: an auditor and the newest
// timestamp of a token installed from it.
type tokenStamp struct {
	auditor wire.RobotID
	t       wire.Tick
}

// Wiring is what an a-node is wired to (Fig. 3): the radio, the
// c-node, the motors and the kill switch. The a-node calls it; nothing
// reaches the hardware around the node.
type Wiring interface {
	// ToNIC transmits a frame the node forwarded from the c-node.
	ToNIC(f wire.Frame)
	// ToCNode hands a received frame up to the c-node, with the
	// encoding the chain commits (nil for unchained audit frames), on
	// loan for the duration of the call — see RecvWireless.
	ToCNode(f wire.Frame, enc []byte)
	// ToActuator drives the motors.
	ToActuator(cmd wire.ActuatorCmd)
	// SafeMode fires the kill switch, at most once per power-up.
	SafeMode()
}

// NewANode constructs an a-node wired to four hooks: c-node ↔ radio,
// c-node ↔ motors, and the kill switch (see Wiring); nil hooks drop.
// It is Init with the hooks as the node's Wiring.
func NewANode(cfg ANodeConfig, clock Clock,
	toNIC func(wire.Frame), toCNode func(wire.Frame, []byte), toActuator func(wire.ActuatorCmd),
	onSafeMode func()) *ANode {
	a := new(ANode)
	a.Init(cfg, clock, &hooks{toNIC, toCNode, toActuator, onSafeMode})
	return a
}

// Init sets a up in place as a fresh, unprovisioned a-node enforcing
// cfg on its own local timer, wired to w (which must not be nil).
func (a *ANode) Init(cfg ANodeConfig, clock Clock, w Wiring) {
	if cfg.BatchSize == 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	*a = ANode{cfg: cfg, bktLvl: cfg.BucketCapacity, wiring: w}
	a.nodeBase.init(wire.NodeA, cfg.BatchSize, clock)
}

// hooks is NewANode's Wiring: four funcs, any of which may be nil.
type hooks struct {
	toNIC      func(wire.Frame)
	toCNode    func(wire.Frame, []byte)
	toActuator func(wire.ActuatorCmd)
	onSafeMode func()
}

func (h *hooks) ToNIC(f wire.Frame) {
	if h.toNIC != nil {
		h.toNIC(f)
	}
}

func (h *hooks) ToCNode(f wire.Frame, enc []byte) {
	if h.toCNode != nil {
		h.toCNode(f, enc)
	}
}

func (h *hooks) ToActuator(cmd wire.ActuatorCmd) {
	if h.toActuator != nil {
		h.toActuator(cmd)
	}
}

func (h *hooks) SafeMode() {
	if h.onSafeMode != nil {
		h.onSafeMode()
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
	a.tk = a.tk[:0]
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
	a.wiring.SafeMode()
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
	for _, s := range a.tk {
		if s.t+a.cfg.TVal > now {
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
	if !f.IsAudit() && len(f.Payload) > wire.MaxChainedPayload {
		return // unloggable frame: refuse to deliver rather than skip the chain
	}
	var enc []byte
	if !f.IsAudit() {
		enc = f.AppendEncode(a.rxEnc[:0])
	}
	a.wiring.ToCNode(f, enc)
	if enc != nil {
		a.appendToChain(wire.EntryRecv, enc)
	}
}

// SendWirelessEnc forwards a frame from the c-node to the radio,
// committing it to the chain unless audit-flagged, and reports whether
// it was forwarded. It returns the frame encoding the chain witnessed
// (nil for audit frames, which are never chained): the c-node must log
// exactly those bytes. The bytes live in the node's send buffer and are
// lent until the next SendWirelessEnc or ActuatorCmdEnc on this node
// overwrites them; a c-node that keeps them copies them.
func (a *ANode) SendWirelessEnc(f wire.Frame) ([]byte, bool) {
	if !a.HasKey() {
		return nil, false
	}
	if !f.IsAudit() && len(f.Payload) > wire.MaxChainedPayload {
		return nil, false
	}
	a.wiring.ToNIC(f)
	if f.IsAudit() {
		return nil, true
	}
	enc := f.AppendEncode(a.txEnc[:0])
	a.appendToChain(wire.EntrySend, enc)
	return enc, true
}

// ActuatorCmdEnc forwards an actuator command and commits it to the
// chain. It reports whether the command reached the motors (false once
// in Safe Mode or before the mission key is installed) and returns the
// encoding the chain witnessed, for the c-node's log. It shares
// SendWirelessEnc's buffer and borrow rule: the bytes are lent until
// the next SendWirelessEnc or ActuatorCmdEnc on this node.
func (a *ANode) ActuatorCmdEnc(cmd wire.ActuatorCmd) ([]byte, bool) {
	if !a.HasKey() {
		return nil, false
	}
	a.wiring.ToActuator(cmd)
	enc := cmd.AppendEncode(a.txEnc[:0])
	a.appendToChain(wire.EntryActuator, enc)
	return enc, true
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
	for i < len(a.tk) && a.tk[i].auditor < auditor {
		i++
	}
	if i < len(a.tk) && a.tk[i].auditor == auditor {
		if t > a.tk[i].t {
			a.tk[i].t = t
		}
		return
	}
	if cap(a.tk) == 0 {
		// Room for a round's f_max+1 auditors and as many again in one
		// allocation.
		a.tk = make([]tokenStamp, 0, 8)
	}
	a.tk = append(a.tk, tokenStamp{})
	copy(a.tk[i+1:], a.tk[i:])
	a.tk[i] = tokenStamp{auditor: auditor, t: t}
}

// ValidTokenCount returns how many installed tokens are currently
// fresh; exposed for metrics and tests only.
func (a *ANode) ValidTokenCount() int {
	return a.freshTokens(a.clock())
}
