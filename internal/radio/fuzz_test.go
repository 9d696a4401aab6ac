package radio

import (
	"bytes"
	"testing"

	"roborebound/internal/wire"
)

// FuzzFragmentRoundTrip asserts that any frame split by the fragmenter
// comes out as the same fragments, byte for byte, as the oracle's (one
// buffer per fragment), and reassembles to the original, byte for
// byte, for any valid MTU. The inputs are clamped to the function's
// documented domain (an MTU that can carry both headers, a payload
// small enough for 255 fragments) rather than filtered, so every fuzz
// input exercises the pair.
func FuzzFragmentRoundTrip(f *testing.F) {
	f.Add(uint16(1), uint16(2), uint8(0), []byte("hello"), 16, uint16(7))
	f.Add(uint16(3), uint16(0xFFFF), uint8(wire.FlagAudit), bytes.Repeat([]byte{0xAB}, 900), 66, uint16(0))
	f.Add(uint16(9), uint16(4), uint8(0), []byte{}, 12, uint16(65535))
	// The bottom of the domain: one payload byte per fragment, and an
	// encoding that is an exact multiple of the chunk size.
	f.Add(uint16(2), uint16(3), uint8(0), bytes.Repeat([]byte{0x5C}, 40), 12, uint16(1))
	f.Add(uint16(2), uint16(3), uint8(0), bytes.Repeat([]byte{0x5D}, 13), 17, uint16(2))
	f.Fuzz(func(t *testing.T, src, dst uint16, flags uint8, payload []byte, mtu int, msgID uint16) {
		// Clamp into the documented domain rather than filtering: any
		// MTU with room for at least one payload byte per fragment is
		// valid, and the payload cap keeps the fragment count under
		// the 255 ceiling at that chunk size.
		const minChunk = 1
		if mtu < wire.FrameHeaderSize+FragHeaderSize+minChunk {
			mtu = wire.FrameHeaderSize + FragHeaderSize + minChunk
		}
		if len(payload) > 1<<16 {
			payload = payload[:1<<16]
		}
		// The chunk < 1<<16 guard keeps 200*chunk from overflowing on a
		// fuzzer-chosen huge MTU; a chunk that large can't need more
		// than two fragments for a <=1<<16-byte payload anyway.
		if chunk := mtu - wire.FrameHeaderSize - FragHeaderSize; chunk < 1<<16 && len(payload) > 200*chunk {
			payload = payload[:200*chunk]
		}
		orig := wire.Frame{
			Src: wire.RobotID(src), Dst: wire.RobotID(dst),
			// A bare FlagFragment on an unfragmented frame means
			// something else to the receiver; the fragmenter never
			// emits it on originals.
			Flags:   flags &^ wire.FlagFragment,
			Payload: payload,
		}
		frags := fragmentFrame(orig, mtu, msgID)
		want := oracleFragmentFrame(orig, mtu, msgID)
		if len(frags) != len(want) {
			t.Fatalf("%d fragments, the oracle cuts %d", len(frags), len(want))
		}
		for i := range frags {
			if got, w := frags[i].Encode(), want[i].Encode(); !bytes.Equal(got, w) {
				t.Fatalf("fragment %d encodes to %x, the oracle's to %x", i, got, w)
			}
			if len(frags) > 1 && cap(frags[i].Payload) != len(frags[i].Payload) {
				t.Fatalf("fragment %d's payload has room for %d more bytes: an append would write into the next",
					i, cap(frags[i].Payload)-len(frags[i].Payload))
			}
		}
		for _, fr := range frags {
			if enc := fr.Encode(); len(enc) > mtu && len(frags) > 1 {
				t.Fatalf("fragment encodes to %d bytes > mtu %d", len(enc), mtu)
			}
		}
		r := NewReassembler()
		var got wire.Frame
		done := false
		for _, fr := range frags {
			if g, ok := r.Add(orig.Src, fr, 0); ok {
				if done {
					t.Fatal("frame completed twice")
				}
				got, done = g, true
			}
		}
		if !done {
			t.Fatalf("frame never reassembled from %d fragments", len(frags))
		}
		if got.Src != orig.Src || got.Dst != orig.Dst || got.Flags != orig.Flags ||
			!bytes.Equal(got.Payload, orig.Payload) {
			t.Fatalf("round trip mismatch: %+v != %+v", got, orig)
		}
		if r.Pending() != 0 {
			t.Fatalf("%d buffers left pending after completion", r.Pending())
		}
	})
}

// FuzzReassembler feeds arbitrary fragment streams — malformed
// headers, inconsistent totals, duplicate indices, interleaved
// senders — and asserts the reassembler never panics, never buffers
// more than one frame per (sender, msgID), and only ever returns
// frames that decode. The oracle reassembler (a copy per fragment) is
// fed the same stream: after every Add and Expire both must have
// returned the same frame, byte for byte, and hold the same number of
// pending frames. Every frame returned is kept and must be unchanged
// when the stream ends: a returned frame owns its bytes.
func FuzzReassembler(f *testing.F) {
	f.Add([]byte{}, uint8(3))
	f.Add([]byte{0, 7, 0, 2, 1, 2, 3, 0, 7, 1, 2, 4, 5, 6}, uint8(5))
	f.Add(bytes.Repeat([]byte{0xFF}, 64), uint8(0))
	// A whole frame in three 13-byte fragments, in order and reversed,
	// so that the seeds complete frames both in place and by copy.
	frags := fragmentFrame(wire.Frame{Src: 2, Dst: 3, Payload: []byte("twenty bytes payload")}, 20, 0x0102)
	var inOrder, reversed []byte
	for i := range frags {
		inOrder = append(inOrder, frags[i].Payload...)
		reversed = append(reversed, frags[len(frags)-1-i].Payload...)
	}
	f.Add(inOrder, uint8(12))
	f.Add(reversed, uint8(12))
	f.Fuzz(func(t *testing.T, data []byte, step uint8) {
		r, oracle := NewReassembler(), newOracleReassembler()
		var kept []wire.Frame
		var clones [][]byte
		senders := 0
		for now := wire.Tick(0); len(data) > 0; now++ {
			n := 1 + int(step)%13
			if n > len(data) {
				n = len(data)
			}
			chunk := data[:n]
			data = data[n:]
			from := wire.RobotID(chunk[0] % 4)
			fr := wire.Frame{
				Src: from, Dst: wire.Broadcast,
				Flags:   wire.FlagFragment,
				Payload: chunk,
			}
			got, ok := r.Add(from, fr, now)
			want, wantOK := oracle.Add(from, fr, now)
			if ok != wantOK || got.Src != want.Src || got.Dst != want.Dst || got.Flags != want.Flags ||
				!bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("Add returned %+v %v, the oracle %+v %v", got, ok, want, wantOK)
			}
			if ok {
				// Anything the reassembler hands back must have come
				// out of wire.DecodeFrame, i.e. re-encode cleanly.
				if _, err := wire.DecodeFrame(got.Encode()); err != nil {
					t.Fatalf("reassembled frame does not re-decode: %v", err)
				}
				kept, clones = append(kept, got), append(clones, bytes.Clone(got.Payload))
			}
			senders++
			if r.Pending() != oracle.Pending() {
				t.Fatalf("after Add: %d pending, the oracle %d", r.Pending(), oracle.Pending())
			}
			if r.Pending() > 4*256 {
				t.Fatalf("pending buffers grew unboundedly: %d", r.Pending())
			}
			r.Expire(now)
			oracle.Expire(now)
			if r.Pending() != oracle.Pending() {
				t.Fatalf("after Expire: %d pending, the oracle %d", r.Pending(), oracle.Pending())
			}
		}
		r.Expire(1 << 20)
		if r.Pending() != 0 {
			t.Fatalf("Expire left %d buffers past the timeout", r.Pending())
		}
		for i, f := range kept {
			if !bytes.Equal(f.Payload, clones[i]) {
				t.Fatalf("returned frame %d changed after it was returned: %x, was %x", i, f.Payload, clones[i])
			}
		}
	})
}
