package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"roborebound/internal/cryptolite"
)

// RobotID identifies a robot within one MRS. IDs are assigned at
// provisioning time (LOADMASTERKEY burns the ID into the trusted
// nodes).
type RobotID uint16

// Broadcast is the destination address for broadcast frames.
const Broadcast RobotID = 0xFFFF

// Tick is simulated time, measured in engine ticks. The a-node's local
// timer is also expressed in ticks of its own clock; no global clock
// synchronization is assumed (§3.5).
type Tick uint64

// Message kinds.
const (
	KindState         uint8 = 1 // flocking state broadcast
	KindAuditRequest  uint8 = 3 // log segment + checkpoint + tokens
	KindAuditResponse uint8 = 4 // token grant or refusal
)

// Frame flags.
const (
	// FlagAudit marks audit-protocol traffic. The a-node does not log
	// flagged messages (§3.4) — otherwise each audit would log its own
	// transmission and the log would grow without bound — but the flag
	// is part of the frame, so a receiver never confuses audit traffic
	// with application traffic.
	FlagAudit uint8 = 1 << 0
	// FlagFragment marks one fragment of a larger frame (Appendix B:
	// the RFM69 radio has a 66-byte FIFO, so "large packets are
	// fragmented and re-assembled by the receiver"). The payload
	// starts with a radio.FragHeader.
	FlagFragment uint8 = 1 << 1
)

// FrameHeaderSize is the encoded size of a frame header.
const FrameHeaderSize = 7

// MaxChainedPayload is the largest payload a chained (non-audit) frame
// may carry: the frame's whole encoding is the log entry the trusted
// chain and the c-node's log commit, and an entry carries at most
// MaxLoggedPayload bytes.
const MaxChainedPayload = MaxLoggedPayload - FrameHeaderSize

// Frame is the radio-level envelope. Src is *claimed*, not
// authenticated: commodity radios do not authenticate link-layer
// addresses, and RoboRebound's security argument never relies on it.
type Frame struct {
	Src     RobotID
	Dst     RobotID // Broadcast or a unicast ID
	Flags   uint8
	Payload []byte
}

// IsAudit reports whether the audit type bit is set.
func (f *Frame) IsAudit() bool { return f.Flags&FlagAudit != 0 }

// EncodedSize returns len(f.Encode()) without allocating the
// encoding. The radio measures every transmitted frame for the byte
// accounting; a size-only Encode call there would dominate the Send
// path's allocations.
func (f *Frame) EncodedSize() int { return FrameHeaderSize + len(f.Payload) }

// Encode serializes the frame.
func (f *Frame) Encode() []byte {
	return f.AppendEncode(make([]byte, 0, f.EncodedSize()))
}

// AppendEncode appends the frame's encoding to dst and returns the
// extended slice, so a caller that owns a buffer (the a-node encodes
// every received frame) pays no allocation per frame. It appends
// directly instead of going through a Writer: a destination handed to
// a *Writer escapes, and replay.Verify encodes into stack arrays.
func (f *Frame) AppendEncode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(f.Src))
	dst = binary.BigEndian.AppendUint16(dst, uint16(f.Dst))
	dst = append(dst, f.Flags)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(f.Payload)))
	return append(dst, f.Payload...)
}

// DecodeFrame parses an encoded frame.
func DecodeFrame(b []byte) (Frame, error) {
	r := NewReader(b)
	var f Frame
	f.Src = RobotID(r.U16())
	f.Dst = RobotID(r.U16())
	f.Flags = r.U8()
	n := int(r.U16())
	f.Payload = r.Raw(n)
	if err := r.Done(); err != nil {
		return Frame{}, fmt.Errorf("frame: %w", err)
	}
	return f, nil
}

// StateMsgSize is the encoded size of a state broadcast: 27 bytes, as
// in §5.1 ("Olfati-Saber's 27-byte state message").
const StateMsgSize = 27

// StateMsg is the periodic flocking state broadcast: the sender's
// claimed ID, its local time, and its position and velocity. Position
// and velocity travel as float32 — radio bandwidth is the scarce
// resource, and neighbors only need ~meter-scale precision.
type StateMsg struct {
	Src        RobotID // claimed identity — a compromised robot can lie here
	Time       Tick
	PosX, PosY float32
	VelX, VelY float32
}

// Encode serializes the state message (always StateMsgSize bytes).
func (m *StateMsg) Encode() []byte {
	return m.AppendEncode(make([]byte, 0, StateMsgSize))
}

// AppendEncode appends the message's encoding to dst and returns the
// extended slice: a controller encodes its broadcast into a buffer it
// owns, so a replayed broadcast tick costs no allocation.
func (m *StateMsg) AppendEncode(dst []byte) []byte {
	dst = append(dst, KindState)
	dst = binary.BigEndian.AppendUint16(dst, uint16(m.Src))
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.Time))
	dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(m.PosX))
	dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(m.PosY))
	dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(m.VelX))
	return binary.BigEndian.AppendUint32(dst, math.Float32bits(m.VelY))
}

// DecodeStateMsg parses a state message.
func DecodeStateMsg(b []byte) (StateMsg, error) {
	r := NewReader(b)
	if k := r.U8(); r.Err() == nil && k != KindState {
		return StateMsg{}, ErrBadKind
	}
	var m StateMsg
	m.Src = RobotID(r.U16())
	m.Time = Tick(r.U64())
	m.PosX = r.F32()
	m.PosY = r.F32()
	m.VelX = r.F32()
	m.VelY = r.F32()
	if err := r.Done(); err != nil {
		return StateMsg{}, fmt.Errorf("state msg: %w", err)
	}
	return m, nil
}

// PayloadKind returns the message kind of an encoded payload, or 0 if
// the payload is empty.
func PayloadKind(b []byte) uint8 {
	if len(b) == 0 {
		return 0
	}
	return b[0]
}

// Authenticator is an attestation of a trusted node's hash-chain top:
// α := (nodeKind, t, h, id, MAC(AUTH ‖ nodeKind ‖ t ‖ h ‖ id ‖ key))
// (§3.4, with two hardening deviations recorded in DESIGN.md):
//
//   - NodeKind distinguishes the s-node's chain from the a-node's;
//     without it the two chains of one robot would share an
//     authenticator format and a compromised c-node could present one
//     chain's attestation as the other's.
//   - T is the issuing node's local timer. Without it, a compromised
//     c-node could satisfy every audit with a *stale* genuine
//     authenticator and a matching truncated log, hiding all recent
//     misbehavior — defeating BTI. The s-node and a-node share the
//     robot's power-up instant and the c-node cannot reset them
//     (§3.2), so an auditor can require the end-of-segment
//     authenticators to be contemporaneous with the token request.
type Authenticator struct {
	NodeKind uint8 // NodeS or NodeA
	T        Tick  // issuing node's local time
	Top      cryptolite.ChainHash
	ID       RobotID
	Mac      cryptolite.Tag
}

// Trusted node kinds.
const (
	NodeS uint8 = 1
	NodeA uint8 = 2
)

// AuthenticatorSize is the encoded authenticator size.
const AuthenticatorSize = 1 + 8 + cryptolite.SHA1Size + 2 + cryptolite.TagSize

// Encode serializes the authenticator.
func (a *Authenticator) Encode() []byte {
	return a.AppendEncode(make([]byte, 0, AuthenticatorSize))
}

// AppendEncode appends the authenticator's encoding to dst and returns
// the extended slice, so a checkpoint embeds its two authenticators
// without an intermediate buffer each.
func (a *Authenticator) AppendEncode(dst []byte) []byte {
	dst = append(dst, a.NodeKind)
	dst = binary.BigEndian.AppendUint64(dst, uint64(a.T))
	dst = append(dst, a.Top[:]...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(a.ID))
	return append(dst, a.Mac[:]...)
}

func decodeAuthenticator(r *Reader) Authenticator {
	var a Authenticator
	a.NodeKind = r.U8()
	a.T = Tick(r.U64())
	copy(a.Top[:], r.Raw(cryptolite.SHA1Size))
	a.ID = RobotID(r.U16())
	copy(a.Mac[:], r.Raw(cryptolite.TagSize))
	return a
}

// DecodeAuthenticator parses an encoded authenticator.
func DecodeAuthenticator(b []byte) (Authenticator, error) {
	r := NewReader(b)
	a := decodeAuthenticator(r)
	if err := r.Done(); err != nil {
		return Authenticator{}, fmt.Errorf("authenticator: %w", err)
	}
	return a, nil
}

// TokenRequest is the a-node-signed solicitation an auditee attaches
// to each audit request: (t, MAC(TREQ ‖ t ‖ robId ‖ dest ‖ key))
// (Algorithm 4, MAKETOKENREQUEST). The timestamp is the *auditee's*
// a-node-local time, which is what makes the eventual token's age
// checkable without synchronized clocks (§3.5).
type TokenRequest struct {
	Auditee RobotID // robId of the requesting a-node
	Auditor RobotID // dest
	T       Tick    // auditee's a-node local timer
	Mac     cryptolite.Tag
}

// tokenRequestSize is the encoded size of a token request, which
// travels only inside an audit request's head.
const tokenRequestSize = 2 + 2 + 8 + cryptolite.TagSize

func (t *TokenRequest) encodeTo(w *Writer) {
	w.U16(uint16(t.Auditee))
	w.U16(uint16(t.Auditor))
	w.U64(uint64(t.T))
	w.Raw(t.Mac[:])
}

func decodeTokenRequestBody(r *Reader) TokenRequest {
	var t TokenRequest
	t.Auditee = RobotID(r.U16())
	t.Auditor = RobotID(r.U16())
	t.T = Tick(r.U64())
	copy(t.Mac[:], r.Raw(cryptolite.TagSize))
	return t
}

// Token certifies a successful audit: (s, d, t, h_ckpt, mac) where s
// is the auditor, d the auditee, t the auditee's a-node timestamp from
// the token request, and h_ckpt the hash of the checkpoint at the end
// of the audited segment (§3.5). 40 bytes encoded, matching the
// "state and token, <40B" row of Table 1.
type Token struct {
	Auditor RobotID
	Auditee RobotID
	T       Tick
	HCkpt   cryptolite.ChainHash
	Mac     cryptolite.Tag
}

// TokenSize is the encoded token size.
const TokenSize = 2 + 2 + 8 + cryptolite.SHA1Size + cryptolite.TagSize

// Encode serializes the token.
func (t *Token) Encode() []byte {
	return t.appendTo(make([]byte, 0, TokenSize))
}

func (t *Token) encodeTo(w *Writer) { w.buf = t.appendTo(w.buf) }

func (t *Token) appendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(t.Auditor))
	dst = binary.BigEndian.AppendUint16(dst, uint16(t.Auditee))
	dst = binary.BigEndian.AppendUint64(dst, uint64(t.T))
	dst = append(dst, t.HCkpt[:]...)
	return append(dst, t.Mac[:]...)
}

func decodeToken(r *Reader) Token {
	var t Token
	t.Auditor = RobotID(r.U16())
	t.Auditee = RobotID(r.U16())
	t.T = Tick(r.U64())
	copy(t.HCkpt[:], r.Raw(cryptolite.SHA1Size))
	copy(t.Mac[:], r.Raw(cryptolite.TagSize))
	return t
}

// DecodeToken parses an encoded token.
func DecodeToken(b []byte) (Token, error) {
	r := NewReader(b)
	t := decodeToken(r)
	if err := r.Done(); err != nil {
		return Token{}, fmt.Errorf("token: %w", err)
	}
	return t, nil
}

// AuditRequest carries everything an auditor needs (§3.7): the log
// segment, the checkpoint at its start with the tokens covering it,
// the checkpoint at its end (which embeds the end-of-segment
// authenticators of both trusted nodes), and the a-node-signed token
// request.
//
// StartCheckpoint and EndCheckpoint are opaque here — checkpoint
// encoding is owned by the auditlog package — so that wire stays at
// the bottom of the dependency graph.
type AuditRequest struct {
	Auditee RobotID
	Auditor RobotID
	Req     TokenRequest // must be addressed to Auditor

	FromBoot        bool   // segment starts at power-up (no prior tokens)
	StartCheckpoint []byte // encoded checkpoint at segment start (empty if FromBoot)
	StartTokens     []Token

	EndCheckpoint []byte // encoded checkpoint at segment end
	Segment       []byte // encoded log entries
}

// Encode serializes the audit request.
func (a *AuditRequest) Encode() []byte {
	w := NewWriter(64 + len(a.StartCheckpoint) + len(a.EndCheckpoint) +
		len(a.Segment) + len(a.StartTokens)*TokenSize)
	w.U8(KindAuditRequest)
	w.U16(uint16(a.Auditee))
	w.U16(uint16(a.Auditor))
	a.Req.encodeTo(w)
	if a.FromBoot {
		w.U8(1)
	} else {
		w.U8(0)
	}
	w.Blob(a.StartCheckpoint)
	w.U8(uint8(len(a.StartTokens)))
	for i := range a.StartTokens {
		a.StartTokens[i].encodeTo(w)
	}
	w.Blob(a.EndCheckpoint)
	w.Blob(a.Segment)
	return w.Bytes()
}

// auditRequestHeadSize is the per-auditor prefix of an encoded audit
// request: kind, auditee, auditor, and the token-request body.
const auditRequestHeadSize = 1 + 2 + 2 + tokenRequestSize

// EncodeWithTail serializes the request given its round-invariant
// tail — everything from the FromBoot flag on, as SplitAuditRequest
// returns it from a whole encoding of the same FromBoot/checkpoint/
// token/segment fields. An auditee asks f_max+1 auditors about the same
// checkpoint each round; only the head (kind, IDs, the per-auditor
// token request) differs between those requests, while the tail —
// dominated by the log segment — is identical. The engine encodes the
// round's first request whole, keeps that payload's tail, and stitches
// every later request from it instead of re-serializing the segment
// per auditor. TestAuditRequestTailSplit pins
// Encode() == EncodeWithTail(tail of Encode()).
func (a *AuditRequest) EncodeWithTail(tail []byte) []byte {
	w := NewWriter(auditRequestHeadSize + len(tail))
	w.U8(KindAuditRequest)
	w.U16(uint16(a.Auditee))
	w.U16(uint16(a.Auditor))
	a.Req.encodeTo(w)
	w.Raw(tail)
	return w.Bytes()
}

// AuditRequestHead is the per-auditor prefix of an audit request: the
// only fields that differ between the f_max+1 copies of one round's
// fan-out. SplitAuditRequest decodes it without parsing the tail.
type AuditRequestHead struct {
	Auditee RobotID
	Auditor RobotID
	Req     TokenRequest
}

// SplitAuditRequest decodes only the head of an encoded audit request
// and returns the round-invariant tail bytes unparsed, a view of b.
// Callers that key on request content (the audit cache) hash the raw
// tail instead of re-framing decoded fields, and defer the full
// DecodeAuditRequest until they actually need them; the sender keeps
// the tail of a round's first request to build the rest (see
// EncodeWithTail).
func SplitAuditRequest(b []byte) (AuditRequestHead, []byte, error) {
	r := NewReader(b)
	if k := r.U8(); r.Err() == nil && k != KindAuditRequest {
		return AuditRequestHead{}, nil, ErrBadKind
	}
	var h AuditRequestHead
	h.Auditee = RobotID(r.U16())
	h.Auditor = RobotID(r.U16())
	h.Req = decodeTokenRequestBody(r)
	if err := r.Err(); err != nil {
		return AuditRequestHead{}, nil, fmt.Errorf("audit request head: %w", err)
	}
	return h, b[auditRequestHeadSize:], nil
}

// DecodeAuditRequest parses an encoded audit request.
func DecodeAuditRequest(b []byte) (AuditRequest, error) {
	var a AuditRequest
	if err := a.Decode(b); err != nil {
		return AuditRequest{}, err
	}
	return a, nil
}

// Decode parses an encoded audit request into a, reusing a's
// StartTokens storage; the byte fields are views of b. On an error a
// is left as a fresh zero request (StartTokens empty, its storage
// kept), so a reused request never carries a field of an earlier one.
func (a *AuditRequest) Decode(b []byte) error {
	*a = AuditRequest{StartTokens: a.StartTokens[:0]}
	r := NewReader(b)
	if k := r.U8(); r.Err() == nil && k != KindAuditRequest {
		return ErrBadKind
	}
	a.Auditee = RobotID(r.U16())
	a.Auditor = RobotID(r.U16())
	a.Req = decodeTokenRequestBody(r)
	a.FromBoot = r.U8() == 1
	a.StartCheckpoint = r.Blob()
	n := int(r.U8())
	if cap(a.StartTokens) < n {
		a.StartTokens = make([]Token, 0, n)
	}
	for i := 0; i < n; i++ {
		a.StartTokens = append(a.StartTokens, decodeToken(r))
	}
	a.EndCheckpoint = r.Blob()
	a.Segment = r.Blob()
	if err := r.Done(); err != nil {
		*a = AuditRequest{StartTokens: a.StartTokens[:0]}
		return fmt.Errorf("audit request: %w", err)
	}
	return nil
}

// AuditResponse is the auditor's reply: a token on success. On failure
// the paper's auditor simply ignores the request (§3.7); the explicit
// refusal here exists only so simulations can account for response
// traffic and tests can assert on refusal paths. Refusals carry no
// authority — an auditee treats one exactly like silence.
type AuditResponse struct {
	Auditor RobotID
	Auditee RobotID
	OK      bool
	Tok     Token // valid only when OK
}

// AuditResponseSize is the encoded audit response size.
const AuditResponseSize = 1 + 2 + 2 + 1 + TokenSize

// Encode serializes the audit response.
func (a *AuditResponse) Encode() []byte {
	return a.AppendEncode(make([]byte, 0, AuditResponseSize))
}

// AppendEncode appends the response's encoding to dst and returns the
// extended slice, so an auditor encodes its reply into a payload carved
// from its send slab (see Slab).
func (a *AuditResponse) AppendEncode(dst []byte) []byte {
	dst = append(dst, KindAuditResponse)
	dst = binary.BigEndian.AppendUint16(dst, uint16(a.Auditor))
	dst = binary.BigEndian.AppendUint16(dst, uint16(a.Auditee))
	ok := uint8(0)
	if a.OK {
		ok = 1
	}
	return a.Tok.appendTo(append(dst, ok))
}

// DecodeAuditResponse parses an encoded audit response.
func DecodeAuditResponse(b []byte) (AuditResponse, error) {
	r := NewReader(b)
	if k := r.U8(); r.Err() == nil && k != KindAuditResponse {
		return AuditResponse{}, ErrBadKind
	}
	var a AuditResponse
	a.Auditor = RobotID(r.U16())
	a.Auditee = RobotID(r.U16())
	a.OK = r.U8() == 1
	a.Tok = decodeToken(r)
	if err := r.Done(); err != nil {
		return AuditResponse{}, fmt.Errorf("audit response: %w", err)
	}
	return a, nil
}
