package wire

import (
	"bytes"
	"testing"
)

// sampleAuditRequest builds a fully-populated request with
// recognizable bytes in every field.
func sampleAuditRequest() AuditRequest {
	tok := func(seed byte) Token {
		t := Token{Auditor: RobotID(seed), Auditee: 9, T: Tick(100 + seed)}
		for i := range t.HCkpt {
			t.HCkpt[i] = seed + byte(i)
		}
		for i := range t.Mac {
			t.Mac[i] = seed ^ byte(i)
		}
		return t
	}
	a := AuditRequest{
		Auditee:         9,
		Auditor:         4,
		Req:             TokenRequest{Auditee: 9, Auditor: 4, T: 321},
		StartCheckpoint: []byte("start-checkpoint-bytes"),
		StartTokens:     []Token{tok(1), tok(2), tok(3)},
		EndCheckpoint:   []byte("end-checkpoint-bytes"),
		Segment:         bytes.Repeat([]byte{0xAB, 0xCD}, 40),
	}
	for i := range a.Req.Mac {
		a.Req.Mac[i] = 0x50 + byte(i)
	}
	return a
}

// encodeTail is the test's own encoding of the round-invariant tail —
// everything from the FromBoot flag on — field by field, so the split
// is held to the layout and not to itself.
func encodeTail(a *AuditRequest) []byte {
	w := NewWriter(0)
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

// TestAuditRequestTailSplit pins the head/tail split three ways:
// SplitAuditRequest returns exactly the tail fields' encoding, as a
// view of the payload it was given; a request for another auditor
// stitched from that tail (EncodeWithTail) equals its own Encode; and
// the split head agrees with the full decode. The audit cache keys on
// the raw tail and the sender builds f_max of a round's f_max+1
// requests from it, so any drift between these encodings would
// silently change cache identity or the bytes on the air.
func TestAuditRequestTailSplit(t *testing.T) {
	for _, fromBoot := range []bool{false, true} {
		a := sampleAuditRequest()
		if fromBoot {
			a.FromBoot = true
			a.StartCheckpoint = nil
			a.StartTokens = nil
		}
		enc := a.Encode()
		head, tail, err := SplitAuditRequest(enc)
		if err != nil {
			t.Fatalf("fromBoot=%v: split: %v", fromBoot, err)
		}
		if !bytes.Equal(tail, encodeTail(&a)) {
			t.Errorf("fromBoot=%v: split tail differs from the tail fields' encoding", fromBoot)
		}
		if len(tail) == 0 || &tail[len(tail)-1] != &enc[len(enc)-1] {
			t.Errorf("fromBoot=%v: split tail is not the end of the payload it was split from", fromBoot)
		}
		if got := a.EncodeWithTail(tail); !bytes.Equal(enc, got) {
			t.Fatalf("fromBoot=%v: EncodeWithTail(split tail) != Encode()", fromBoot)
		}
		other := a
		other.Auditor, other.Req.Auditor, other.Req.Mac[0] = 5, 5, 0xEE
		if got := other.EncodeWithTail(tail); !bytes.Equal(other.Encode(), got) {
			t.Errorf("fromBoot=%v: a second auditor's request stitched from the first's tail != its Encode()", fromBoot)
		}
		if head.Auditee != a.Auditee || head.Auditor != a.Auditor || head.Req != a.Req {
			t.Errorf("fromBoot=%v: split head %+v differs from source fields", fromBoot, head)
		}
		dec, err := DecodeAuditRequest(enc)
		if err != nil {
			t.Fatalf("fromBoot=%v: decode: %v", fromBoot, err)
		}
		if dec.Auditee != head.Auditee || dec.Auditor != head.Auditor || dec.Req != head.Req {
			t.Errorf("fromBoot=%v: full decode disagrees with split head", fromBoot)
		}
	}
}

// TestSplitAuditRequestRejects: wrong kind and truncated heads error;
// a truncated *tail* still splits (the split never parses the tail —
// that is the point), while the full decode rejects it.
func TestSplitAuditRequestRejects(t *testing.T) {
	a := sampleAuditRequest()
	enc := a.Encode()

	bad := append([]byte(nil), enc...)
	bad[0] = KindAuditResponse
	if _, _, err := SplitAuditRequest(bad); err == nil {
		t.Error("wrong kind accepted")
	}
	for _, n := range []int{0, 1, auditRequestHeadSize - 1} {
		if _, _, err := SplitAuditRequest(enc[:n]); err == nil {
			t.Errorf("truncated head (%d bytes) accepted", n)
		}
	}
	truncTail := enc[:len(enc)-1]
	if _, _, err := SplitAuditRequest(truncTail); err != nil {
		t.Errorf("head split rejected a tail-truncated request: %v", err)
	}
	if _, err := DecodeAuditRequest(truncTail); err == nil {
		t.Error("full decode accepted a tail-truncated request")
	}
}
