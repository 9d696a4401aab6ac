package radio

import (
	"bytes"
	"fmt"
	"slices"
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
	frags := fragmentFrame(f, 66, 1)
	if len(frags) != 1 || frags[0].Flags&wire.FlagFragment != 0 {
		t.Fatalf("small frame should pass through: %d fragments", len(frags))
	}
}

func TestFragmentAndReassemble(t *testing.T) {
	f := bigFrame(500)
	frags := fragmentFrame(f, 66, 7)
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
	r := NewReassembler()
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
	frags := fragmentFrame(f, 66, 3)
	r := NewReassembler()
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
	fragsA := fragmentFrame(fa, 66, 9)
	fragsB := fragmentFrame(fb, 66, 9) // same msgID, different transmitter
	r := NewReassembler()
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
	frags := fragmentFrame(f, 66, 4)
	r := NewReassembler()
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
	frags := fragmentFrame(f, 66, 5)
	r := NewReassembler()
	r.Add(1, frags[0], 0)
	if r.Pending() != 1 {
		t.Fatal("no pending buffer")
	}
	r.Expire(reassemblyTimeout - 1)
	if r.Pending() != 1 {
		t.Error("buffer expired before the timeout")
	}
	r.Expire(reassemblyTimeout)
	if r.Pending() != 0 {
		t.Error("stale buffer not expired")
	}
	// Remaining fragments now never complete.
	for _, fr := range frags[1:] {
		if _, ok := r.Add(1, fr, reassemblyTimeout+1); ok {
			t.Error("completed from a partial set")
		}
	}
}

func TestReassemblerRejectsJunk(t *testing.T) {
	r := NewReassembler()
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
		frags := fragmentFrame(orig, mtu, 42)
		r := NewReassembler()
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
	frags := fragmentFrame(orig, mtu, 7)
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
	r := NewReassembler()
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
// round trip at every edge. The off-by-ones the fragmenter could get
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
	frags := fragmentFrame(orig, encLen, 1)
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
		mustPanic(fmt.Sprintf("mtu=%d", mtu), func() { fragmentFrame(big, mtu, 1) })
	}
	// chunk = 1 caps the encoding at 255 bytes; one more must refuse
	// rather than truncate.
	huge := bigFrame(255 - wire.FrameHeaderSize + 1)
	mustPanic("256 fragments", func() { fragmentFrame(huge, wire.FrameHeaderSize+FragHeaderSize+1, 1) })
	for _, mtu := range []int{0, -3} {
		if frags := fragmentFrame(big, mtu, 1); len(frags) != 1 || !bytes.Equal(frags[0].Payload, big.Payload) {
			t.Errorf("mtu=%d: want the frame back unchanged", mtu)
		}
	}
}

// TestReassembledFramesOwnTheirBytes completes frames in order (decoded
// in place), in reverse (decoded from a copy), and after an expiry and
// a restart, all on one reassembler, and checks at the end that every
// frame it returned still holds the bytes it was returned with: a
// recycled buffer never writes into a frame handed out.
func TestReassembledFramesOwnTheirBytes(t *testing.T) {
	r := NewReassembler()
	var kept []wire.Frame
	var clones [][]byte
	keep := func(f wire.Frame, ok bool) {
		if ok {
			kept, clones = append(kept, f), append(clones, bytes.Clone(f.Payload))
		}
	}
	for i := 0; i < 40; i++ {
		orig := bigFrame(100 + i)
		orig.Payload[0] = byte(i)
		frags := fragmentFrame(orig, 66, uint16(i))
		if i%2 == 1 {
			slices.Reverse(frags)
		}
		if i%5 == 0 {
			// A stray fragment that expires, and one whose total
			// disagrees with the frame's, restarting its buffer.
			r.Add(9, frags[0], wire.Tick(i))
			r.Expire(wire.Tick(i) + reassemblyTimeout)
			bad := bytes.Clone(frags[1].Payload)
			bad[3]++
			r.Add(1, wire.Frame{Src: 1, Dst: 5, Flags: wire.FlagFragment, Payload: bad}, wire.Tick(i))
		}
		for _, fr := range frags {
			keep(r.Add(1, fr, wire.Tick(i)))
		}
	}
	if len(kept) != 40 {
		t.Fatalf("%d of 40 frames completed", len(kept))
	}
	for i, f := range kept {
		if !bytes.Equal(f.Payload, clones[i]) || f.Payload[0] != byte(i) {
			t.Fatalf("frame %d changed after it was returned", i)
		}
	}
}

// TestReassemblyAllocatesOneBufferPerFrame: once its spares are warm, a
// reassembler completes a frame whose fragments arrive in order with
// one allocation, the buffer the returned frame keeps.
func TestReassemblyAllocatesOneBufferPerFrame(t *testing.T) {
	frags := fragmentFrame(bigFrame(2000), 66, 1)
	r := NewReassembler()
	run := func() {
		for _, fr := range frags {
			r.Add(1, fr, 0)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 1 {
		t.Fatalf("reassembling a %d-fragment frame allocates %.0f times, want 1", len(frags), allocs)
	}
}

// TestStrayFragmentReservesLittle bounds what one fragment that starts
// a frame reserves until the frame completes or expires: its own chunk
// when it is not fragment 0, and no more than its frame's fragments
// could carry when it is fragment 0 with a header claiming the longest
// payload there is. A sender can flag any small frame as a fragment, so
// this is what each receiver holds per (sender, msgID) it makes up.
func TestStrayFragmentReservesLittle(t *testing.T) {
	chunk := make([]byte, 55)
	header := wire.Frame{Src: 1, Dst: 5, Payload: make([]byte, 0xFFFF)}
	copy(chunk, header.AppendEncode(nil)[:wire.FrameHeaderSize])
	for _, tc := range []struct {
		idx, total, most int
	}{
		{idx: 3, total: maxFragments, most: 2 * len(chunk)},
		{idx: 0, total: 2, most: 2 * len(chunk)},
		{idx: 0, total: maxFragments, most: maxFragments * len(chunk)},
	} {
		r := NewReassembler()
		payload := append([]byte{0, 7, byte(tc.idx), byte(tc.total)}, chunk...)
		if _, done := r.Add(1, wire.Frame{Src: 1, Dst: 5, Flags: wire.FlagFragment, Payload: payload}, 0); done || r.Pending() != 1 {
			t.Fatalf("fragment %d of %d: done %v, pending %d", tc.idx, tc.total, done, r.Pending())
		}
		b := r.bufs[fragKey{from: 1, msgID: 7}]
		if cap(b.data) > tc.most || cap(b.spans) != tc.total {
			t.Errorf("fragment %d of %d reserves %d data bytes (want at most %d) and %d spans (want %d)",
				tc.idx, tc.total, cap(b.data), tc.most, cap(b.spans), tc.total)
		}
	}
}
