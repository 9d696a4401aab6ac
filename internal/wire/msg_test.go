package wire

import (
	"bytes"
	"testing"
	"testing/quick"

	"roborebound/internal/cryptolite"
)

func TestStateMsgSizePinned(t *testing.T) {
	m := StateMsg{Src: 7, Time: 100, PosX: 1, PosY: 2, VelX: 3, VelY: 4}
	b := m.Encode()
	// §5.1: "Olfati-Saber's 27-byte state message".
	if len(b) != StateMsgSize || StateMsgSize != 27 {
		t.Fatalf("state msg is %d bytes, want 27", len(b))
	}
}

func TestStateMsgRoundTrip(t *testing.T) {
	f := func(src uint16, tm uint64, px, py, vx, vy float32) bool {
		m := StateMsg{Src: RobotID(src), Time: Tick(tm), PosX: px, PosY: py, VelX: vx, VelY: vy}
		got, err := DecodeStateMsg(m.Encode())
		if err != nil {
			return false
		}
		// NaN payloads won't compare equal with ==; compare bits via
		// re-encoding instead.
		return bytes.Equal(got.Encode(), m.Encode())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStateMsgRejectsWrongKind(t *testing.T) {
	m := StateMsg{Src: 1}
	b := m.Encode()
	b[0] = KindToken()
	if _, err := DecodeStateMsg(b); err == nil {
		t.Error("wrong kind accepted")
	}
}

// KindToken returns an arbitrary non-state kind for tests.
func KindToken() uint8 { return KindAuditResponse }

func TestStateMsgRejectsTruncation(t *testing.T) {
	b := (&StateMsg{}).Encode()
	for i := 0; i < len(b); i++ {
		if _, err := DecodeStateMsg(b[:i]); err == nil {
			t.Errorf("truncation to %d bytes accepted", i)
		}
	}
	if _, err := DecodeStateMsg(append(b, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}

func TestTokenSizePinned(t *testing.T) {
	tok := Token{Auditor: 1, Auditee: 2, T: 3}
	if len(tok.Encode()) != TokenSize || TokenSize != 40 {
		t.Fatalf("token is %d bytes, want 40 (Table 1: 'state and token, <40B')", TokenSize)
	}
}

func TestTokenRoundTrip(t *testing.T) {
	f := func(tor, tee uint16, tm uint64, h [20]byte, mac [8]byte) bool {
		tok := Token{Auditor: RobotID(tor), Auditee: RobotID(tee), T: Tick(tm),
			HCkpt: cryptolite.ChainHash(h), Mac: cryptolite.Tag(mac)}
		got, err := DecodeToken(tok.Encode())
		return err == nil && got == tok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAuthenticatorRoundTrip(t *testing.T) {
	f := func(kind uint8, tm uint64, top [20]byte, id uint16, mac [8]byte) bool {
		a := Authenticator{NodeKind: kind, T: Tick(tm), Top: cryptolite.ChainHash(top), ID: RobotID(id), Mac: cryptolite.Tag(mac)}
		got, err := DecodeAuthenticator(a.Encode())
		return err == nil && got == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if len((&Authenticator{}).Encode()) != AuthenticatorSize {
		t.Errorf("AuthenticatorSize constant stale")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := func(src, dst uint16, flags uint8, payload []byte) bool {
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		fr := Frame{Src: RobotID(src), Dst: RobotID(dst), Flags: flags, Payload: payload}
		got, err := DecodeFrame(fr.Encode())
		if err != nil {
			return false
		}
		return got.Src == fr.Src && got.Dst == fr.Dst && got.Flags == fr.Flags &&
			bytes.Equal(got.Payload, fr.Payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFrameEncodedSize(t *testing.T) {
	f := func(src, dst uint16, flags uint8, payload []byte) bool {
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		fr := Frame{Src: RobotID(src), Dst: RobotID(dst), Flags: flags, Payload: payload}
		return fr.EncodedSize() == len(fr.Encode())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFrameAuditFlag(t *testing.T) {
	fr := Frame{Flags: FlagAudit}
	if !fr.IsAudit() {
		t.Error("audit flag not detected")
	}
	fr.Flags = 0
	if fr.IsAudit() {
		t.Error("audit flag false positive")
	}
}

func TestAuditRequestRoundTrip(t *testing.T) {
	a := AuditRequest{
		Auditee:         5,
		Auditor:         9,
		Req:             TokenRequest{Auditee: 5, Auditor: 9, T: 123, Mac: cryptolite.Tag{1}},
		FromBoot:        false,
		StartCheckpoint: []byte("checkpoint-bytes"),
		StartTokens: []Token{
			{Auditor: 1, Auditee: 5, T: 10, HCkpt: cryptolite.ChainHash{1}},
			{Auditor: 2, Auditee: 5, T: 11, HCkpt: cryptolite.ChainHash{1}},
		},
		EndCheckpoint: []byte("end-checkpoint-bytes"),
		Segment:       bytes.Repeat([]byte{0xAB}, 500),
	}
	got, err := DecodeAuditRequest(a.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Auditee != a.Auditee || got.Auditor != a.Auditor || got.Req != a.Req ||
		got.FromBoot != a.FromBoot ||
		!bytes.Equal(got.StartCheckpoint, a.StartCheckpoint) ||
		len(got.StartTokens) != len(a.StartTokens) ||
		got.StartTokens[0] != a.StartTokens[0] || got.StartTokens[1] != a.StartTokens[1] ||
		!bytes.Equal(got.EndCheckpoint, a.EndCheckpoint) ||
		!bytes.Equal(got.Segment, a.Segment) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, a)
	}
}

func TestAuditRequestFromBoot(t *testing.T) {
	a := AuditRequest{Auditee: 1, Auditor: 2, FromBoot: true}
	got, err := DecodeAuditRequest(a.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !got.FromBoot || len(got.StartTokens) != 0 {
		t.Errorf("boot request mismatch: %+v", got)
	}
}

func TestAuditResponseRoundTrip(t *testing.T) {
	a := AuditResponse{Auditor: 3, Auditee: 4, OK: true,
		Tok: Token{Auditor: 3, Auditee: 4, T: 99, HCkpt: cryptolite.ChainHash{7}, Mac: cryptolite.Tag{6}}}
	got, err := DecodeAuditResponse(a.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Errorf("got %+v, want %+v", got, a)
	}
}

// Hostile input: decoders must return errors, never panic, on
// arbitrary bytes.
func TestDecodersNeverPanic(t *testing.T) {
	f := func(b []byte) bool {
		DecodeStateMsg(b)
		DecodeToken(b)
		DecodeAuthenticator(b)
		DecodeFrame(b)
		DecodeAuditRequest(b)
		DecodeAuditResponse(b)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Adversarial blob length: claims 4 GB, supplies 4 bytes.
	w := NewWriter(16)
	w.U8(KindAuditRequest)
	w.U16(1)
	w.U16(2)
	w.Raw(make([]byte, 20)) // token request body
	w.U8(0)
	w.U32(0xFFFFFFFF) // hostile checkpoint length
	if _, err := DecodeAuditRequest(w.Bytes()); err == nil {
		t.Error("hostile blob length accepted")
	}
}

func TestReaderBlobBounded(t *testing.T) {
	w := NewWriter(8)
	w.U32(1 << 30)
	r := NewReader(w.Bytes())
	if b := r.Blob(); b != nil || r.Err() == nil {
		t.Error("oversized blob should fail")
	}
}

func TestWriterReaderPrimitives(t *testing.T) {
	w := NewWriter(0)
	w.U8(0xAB)
	w.U16(0x1234)
	w.U32(0xDEADBEEF)
	w.U64(0x0123456789ABCDEF)
	w.F32(1.5)
	w.F64(-2.25)
	w.Blob([]byte("hello"))
	r := NewReader(w.Bytes())
	if r.U8() != 0xAB || r.U16() != 0x1234 || r.U32() != 0xDEADBEEF ||
		r.U64() != 0x0123456789ABCDEF || r.F32() != 1.5 || r.F64() != -2.25 ||
		string(r.Blob()) != "hello" {
		t.Error("primitive round trip failed")
	}
	if err := r.Done(); err != nil {
		t.Error(err)
	}
}
