package wire

import (
	"bytes"
	"testing"
)

// Native fuzz targets for every decoder that consumes radio input —
// the attack surface a compromised robot feeds directly. `go test`
// exercises the seed corpus; `go test -fuzz=FuzzDecoders` digs deeper.

func FuzzDecoders(f *testing.F) {
	f.Add([]byte{})
	f.Add((&StateMsg{Src: 3, Time: 9}).Encode())
	f.Add((&Token{Auditor: 1, Auditee: 2}).Encode())
	f.Add((&AuditRequest{Auditee: 1, Auditor: 2, Req: TokenRequest{Auditee: 1, Auditor: 2, T: 7}}).Encode())
	f.Add((&Authenticator{NodeKind: NodeS}).Encode())
	f.Add((&AuditResponse{OK: true}).Encode())
	big := AuditRequest{Auditee: 1, Auditor: 2, FromBoot: true,
		Segment: bytes.Repeat([]byte{EntryRecv, 1, 0}, 40)}
	f.Add(big.Encode())
	f.Add((&Frame{Src: 1, Dst: 2, Payload: []byte("x")}).Encode())
	covered := AuditRequest{Auditee: 1, Auditor: 2, StartCheckpoint: []byte("start"),
		StartTokens: []Token{{Auditor: 3}, {Auditor: 4}}, EndCheckpoint: []byte("end"), Segment: []byte{EntryMark, 0}}
	f.Add(covered.Encode())
	// The requests a reused scratch holds before it decodes data: one
	// with more start tokens than most, and what a failed decode leaves.
	held := covered
	held.StartTokens = []Token{{Auditor: 5}, {Auditor: 6}, {Auditor: 7}}
	priors := [][]byte{held.Encode(), {KindAuditRequest, 0}}

	f.Fuzz(func(t *testing.T, data []byte) {
		// None of these may panic, loop, or over-allocate; errors are
		// the expected outcome for junk.
		DecodeStateMsg(data)
		DecodeToken(data)
		DecodeAuthenticator(data)
		DecodeAuditResponse(data)
		DecodeFrame(data)
		DecodeSensorReading(data)
		DecodeActuatorCmd(data)

		req, err := DecodeAuditRequest(data)
		if err == nil {
			// A decoded request must re-encode to something decodable
			// (not necessarily byte-identical: callers hash raw bytes,
			// not re-encodings, so only structural stability matters).
			if _, err := DecodeAuditRequest(req.Encode()); err != nil {
				t.Fatalf("re-encode of decoded request fails: %v", err)
			}
		}
		// Decoding into a request that holds another, or what a failed
		// decode left, gives what a fresh decode gives; only the
		// capacity of StartTokens may differ.
		for k, prior := range priors {
			var scratch AuditRequest
			scratch.Decode(prior)
			err2 := scratch.Decode(data)
			if (err2 == nil) != (err == nil) || !sameAuditRequest(&scratch, &req) {
				t.Fatalf("a decode into scratch %d differs from a fresh one (errors %v and %v)", k, err2, err)
			}
		}
		if entries, err := DecodeLogEntries(data); err == nil {
			// Round trip must be exact for entry lists: auditors
			// re-encode entries to feed hash chains.
			if !bytes.Equal(EncodeLogEntries(entries), data) {
				t.Fatal("log entries round trip not exact")
			}
		}
	})
}

func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint16(1), uint16(2), uint8(0), []byte("payload"))
	f.Add(uint16(0xFFFF), uint16(0xFFFF), uint8(3), []byte{})
	f.Fuzz(func(t *testing.T, src, dst uint16, flags uint8, payload []byte) {
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		fr := Frame{Src: RobotID(src), Dst: RobotID(dst), Flags: flags, Payload: payload}
		got, err := DecodeFrame(fr.Encode())
		if err != nil {
			t.Fatalf("round trip decode failed: %v", err)
		}
		if got.Src != fr.Src || got.Dst != fr.Dst || got.Flags != fr.Flags ||
			!bytes.Equal(got.Payload, fr.Payload) {
			t.Fatal("frame round trip mismatch")
		}
	})
}

// sameAuditRequest compares two requests field by field, StartTokens
// by their elements.
func sameAuditRequest(a, b *AuditRequest) bool {
	if a.Auditee != b.Auditee || a.Auditor != b.Auditor || a.Req != b.Req || a.FromBoot != b.FromBoot ||
		!bytes.Equal(a.StartCheckpoint, b.StartCheckpoint) || !bytes.Equal(a.EndCheckpoint, b.EndCheckpoint) ||
		!bytes.Equal(a.Segment, b.Segment) || len(a.StartTokens) != len(b.StartTokens) {
		return false
	}
	for i := range a.StartTokens {
		if a.StartTokens[i] != b.StartTokens[i] {
			return false
		}
	}
	return true
}
