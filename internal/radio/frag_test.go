package radio

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"roborebound/internal/geom"
	"roborebound/internal/wire"
)

func bigFrame(n int) wire.Frame {
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i)
	}
	return wire.Frame{Src: 1, Dst: 5, Flags: wire.FlagAudit, Payload: payload}
}

func TestFragmentSmallFrameUntouched(t *testing.T) {
	f := bigFrame(30)
	frags := FragmentFrame(f, 66, 1)
	if len(frags) != 1 || frags[0].Flags&wire.FlagFragment != 0 {
		t.Fatalf("small frame should pass through: %d fragments", len(frags))
	}
}

func TestFragmentAndReassemble(t *testing.T) {
	f := bigFrame(500)
	frags := FragmentFrame(f, 66, 7)
	if len(frags) < 8 {
		t.Fatalf("expected many fragments, got %d", len(frags))
	}
	for i, fr := range frags {
		if len(fr.Encode()) > 66 {
			t.Fatalf("fragment %d exceeds MTU: %d bytes", i, len(fr.Encode()))
		}
		if fr.Flags&wire.FlagFragment == 0 {
			t.Fatalf("fragment %d not flagged", i)
		}
		if fr.Flags&wire.FlagAudit == 0 {
			t.Fatalf("fragment %d lost the audit flag", i)
		}
		if fr.Src != f.Src || fr.Dst != f.Dst {
			t.Fatalf("fragment %d lost addressing", i)
		}
	}
	r := NewReassembler(0)
	var got wire.Frame
	done := false
	for i, fr := range frags {
		g, ok := r.Add(1, fr, 0)
		if ok {
			if i != len(frags)-1 {
				t.Fatalf("completed early at fragment %d", i)
			}
			got, done = g, true
		}
	}
	if !done {
		t.Fatal("never completed")
	}
	if got.Src != f.Src || got.Dst != f.Dst || got.Flags != f.Flags ||
		!bytes.Equal(got.Payload, f.Payload) {
		t.Error("reassembled frame differs from original")
	}
	if r.Pending() != 0 {
		t.Error("buffer leaked after completion")
	}
}

func TestReassembleOutOfOrder(t *testing.T) {
	f := bigFrame(300)
	frags := FragmentFrame(f, 66, 3)
	r := NewReassembler(0)
	// Deliver in reverse.
	var got wire.Frame
	done := false
	for i := len(frags) - 1; i >= 0; i-- {
		if g, ok := r.Add(1, frags[i], 0); ok {
			got, done = g, true
		}
	}
	if !done || !bytes.Equal(got.Payload, f.Payload) {
		t.Error("out-of-order reassembly failed")
	}
}

func TestReassembleInterleavedSenders(t *testing.T) {
	fa, fb := bigFrame(200), bigFrame(200)
	fb.Payload[0] = 0xEE
	fragsA := FragmentFrame(fa, 66, 9)
	fragsB := FragmentFrame(fb, 66, 9) // same msgID, different transmitter
	r := NewReassembler(0)
	completed := 0
	for i := range fragsA {
		if _, ok := r.Add(1, fragsA[i], 0); ok {
			completed++
		}
		if g, ok := r.Add(2, fragsB[i], 0); ok {
			completed++
			if g.Payload[0] != 0xEE {
				t.Error("cross-sender chunk mixing")
			}
		}
	}
	if completed != 2 {
		t.Errorf("completed %d frames, want 2", completed)
	}
}

func TestReassembleDuplicateFragments(t *testing.T) {
	f := bigFrame(150)
	frags := FragmentFrame(f, 66, 4)
	r := NewReassembler(0)
	r.Add(1, frags[0], 0)
	r.Add(1, frags[0], 0) // duplicate must not complete or corrupt
	done := false
	for _, fr := range frags[1:] {
		if _, ok := r.Add(1, fr, 0); ok {
			done = true
		}
	}
	if !done {
		t.Error("duplicates broke reassembly")
	}
}

func TestReassembleExpiry(t *testing.T) {
	f := bigFrame(300)
	frags := FragmentFrame(f, 66, 5)
	r := NewReassembler(10)
	r.Add(1, frags[0], 0)
	if r.Pending() != 1 {
		t.Fatal("no pending buffer")
	}
	r.Expire(10)
	if r.Pending() != 0 {
		t.Error("stale buffer not expired")
	}
	// Remaining fragments now never complete.
	for _, fr := range frags[1:] {
		if _, ok := r.Add(1, fr, 11); ok {
			t.Error("completed from a partial set")
		}
	}
}

func TestReassemblerRejectsJunk(t *testing.T) {
	r := NewReassembler(0)
	junk := wire.Frame{Src: 1, Flags: wire.FlagFragment, Payload: []byte{1, 2}}
	if _, ok := r.Add(1, junk, 0); ok {
		t.Error("short fragment accepted")
	}
	// total = 0 and idx ≥ total are invalid.
	w := wire.NewWriter(8)
	w.U16(1)
	w.U8(3)
	w.U8(2)
	bad := wire.Frame{Src: 1, Flags: wire.FlagFragment, Payload: w.Bytes()}
	if _, ok := r.Add(1, bad, 0); ok {
		t.Error("idx ≥ total accepted")
	}
}

// Property: any frame round-trips through fragmentation at any viable
// MTU.
func TestFragmentRoundTripProperty(t *testing.T) {
	f := func(payload []byte, mtuRaw uint8, flags uint8) bool {
		if len(payload) > 4096 {
			payload = payload[:4096]
		}
		mtu := 20 + int(mtuRaw)%200 // 20..219
		orig := wire.Frame{Src: 3, Dst: 9, Flags: flags &^ wire.FlagFragment, Payload: payload}
		frags := FragmentFrame(orig, mtu, 42)
		r := NewReassembler(0)
		for i, fr := range frags {
			got, ok := r.Add(3, fr, 0)
			if ok {
				return i == len(frags)-1 &&
					got.Src == orig.Src && got.Dst == orig.Dst &&
					got.Flags == orig.Flags && bytes.Equal(got.Payload, orig.Payload)
			}
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMediumWithMTUDeliversWholeFrames(t *testing.T) {
	pos := posMap{1: geom.V(0, 0), 2: geom.V(10, 0)}
	p := DefaultParams()
	p.MTUBytes = 66
	m := NewMedium(p, pos.fn, 1)
	f := bigFrame(500)
	f.Dst = 2
	m.Send(1, f)
	got := m.Deliver([]wire.RobotID{1, 2})
	if len(got) != 1 {
		t.Fatalf("deliveries: %d, want 1 reassembled frame", len(got))
	}
	if !bytes.Equal(got[0].Frame.Payload, f.Payload) {
		t.Error("payload corrupted in flight")
	}
	// Accounting sees the fragments (more bytes than the bare frame,
	// many frames).
	c := m.Counters(1)
	if c.TxFrames < 8 {
		t.Errorf("TxFrames = %d, expected one per fragment", c.TxFrames)
	}
	if c.TxAudit <= uint64(len(f.Encode())) {
		t.Error("fragment header overhead missing from accounting")
	}
}

func TestMediumMTULossDropsWholeFrame(t *testing.T) {
	pos := posMap{1: geom.V(0, 0), 2: geom.V(10, 0)}
	p := DefaultParams()
	p.MTUBytes = 66
	m := NewMedium(p, pos.fn, 7)
	m.SetLossModel(UniformLoss{Rate: 0.3})
	delivered := 0
	const trials = 100
	for i := 0; i < trials; i++ {
		f := bigFrame(500) // ~9 fragments ⇒ P(all survive) ≈ 0.7⁹ ≈ 4%
		f.Dst = 2
		m.Send(1, f)
		delivered += len(m.Deliver([]wire.RobotID{1, 2}))
	}
	if delivered > trials/4 {
		t.Errorf("delivered %d/%d large frames at 30%% fragment loss; compounding missing", delivered, trials)
	}
}

// roundTrip fragments f at mtu and reassembles, failing the test on
// any mismatch. It returns the fragment count.
func roundTrip(t *testing.T, orig wire.Frame, mtu int) int {
	t.Helper()
	frags := FragmentFrame(orig, mtu, 7)
	if len(frags) > 1 {
		for i, fr := range frags {
			if enc := fr.Encode(); len(enc) > mtu {
				t.Fatalf("mtu %d: fragment %d encodes to %d bytes", mtu, i, len(enc))
			}
			if fr.Flags&wire.FlagFragment == 0 {
				t.Fatalf("mtu %d: fragment %d missing FlagFragment", mtu, i)
			}
		}
	}
	r := NewReassembler(0)
	for i, fr := range frags {
		got, ok := r.Add(orig.Src, fr, 0)
		if !ok {
			continue
		}
		if i != len(frags)-1 {
			t.Fatalf("mtu %d: completed at fragment %d of %d", mtu, i+1, len(frags))
		}
		if got.Src != orig.Src || got.Dst != orig.Dst || got.Flags != orig.Flags ||
			!bytes.Equal(got.Payload, orig.Payload) {
			t.Fatalf("mtu %d: round trip mismatch", mtu)
		}
		return len(frags)
	}
	t.Fatalf("mtu %d: never reassembled from %d fragments", mtu, len(frags))
	return 0
}

// TestFragmentBoundaryMTUs walks the bottom of the MTU domain — from
// 12 (a single payload byte per fragment) upward — with encoding
// lengths that sit exactly on, one under, and one over a multiple of
// the chunk size, checking the fragment-count arithmetic and the
// round trip at every edge. The off-by-ones FragmentFrame could get
// wrong (ceil division, last-chunk clamp, the exact-fit case) all
// live in this corner.
func TestFragmentBoundaryMTUs(t *testing.T) {
	const minMTU = wire.FrameHeaderSize + FragHeaderSize + 1 // chunk = 1
	for mtu := minMTU; mtu <= minMTU+20; mtu++ {
		chunk := mtu - wire.FrameHeaderSize - FragHeaderSize
		for _, k := range []int{1, 2, 3, 7} {
			for _, off := range []int{-1, 0, 1} {
				encLen := k*chunk + off
				n := encLen - wire.FrameHeaderSize
				if n < 0 || encLen > 255*chunk {
					continue
				}
				orig := bigFrame(n)
				got := roundTrip(t, orig, mtu)
				want := 1 // fits: returned unchanged
				if encLen > mtu {
					want = (encLen + chunk - 1) / chunk
				}
				if got != want {
					t.Fatalf("mtu %d encLen %d: %d fragments, want %d", mtu, encLen, got, want)
				}
			}
		}
	}
}

// TestFragmentExactFitUnchanged pins the fits/doesn't-fit boundary:
// a frame whose encoding is exactly mtu bytes is returned as-is (no
// fragment flag, no header overhead), and one byte less of MTU
// splits it.
func TestFragmentExactFitUnchanged(t *testing.T) {
	orig := bigFrame(50)
	encLen := len(orig.Encode())
	frags := FragmentFrame(orig, encLen, 1)
	if len(frags) != 1 || frags[0].Flags&wire.FlagFragment != 0 ||
		!bytes.Equal(frags[0].Payload, orig.Payload) {
		t.Fatalf("exact-fit frame not returned unchanged: %d frags, flags %x",
			len(frags), frags[0].Flags)
	}
	if n := roundTrip(t, orig, encLen-1); n < 2 {
		t.Fatalf("mtu one under the encoding should fragment, got %d frames", n)
	}
}

// TestFragmentPanics pins the documented panics: an MTU with no room
// for a single payload byte after both headers, and a frame needing
// more than 255 fragments. mtu <= 0 is "no MTU" and must not panic.
func TestFragmentPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	big := bigFrame(100)
	for _, mtu := range []int{1, 5, wire.FrameHeaderSize + FragHeaderSize} {
		mtu := mtu
		mustPanic(fmt.Sprintf("mtu=%d", mtu), func() { FragmentFrame(big, mtu, 1) })
	}
	// chunk = 1 caps the encoding at 255 bytes; one more must refuse
	// rather than truncate.
	huge := bigFrame(255 - wire.FrameHeaderSize + 1)
	mustPanic("256 fragments", func() { FragmentFrame(huge, wire.FrameHeaderSize+FragHeaderSize+1, 1) })
	for _, mtu := range []int{0, -3} {
		if frags := FragmentFrame(big, mtu, 1); len(frags) != 1 || !bytes.Equal(frags[0].Payload, big.Payload) {
			t.Errorf("mtu=%d: want the frame back unchanged", mtu)
		}
	}
}
