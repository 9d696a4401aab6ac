package cryptolite

import (
	"testing"

	"roborebound/internal/prng"
)

// TestSHA1StreamMatchesReference pins the stdlib-backed stream to the
// from-scratch SHA1Hasher bit for bit, over lengths straddling every
// block boundary and over arbitrary write splits. This is the license
// for the streaming hash chain to use SHA1Stream: both implement FIPS
// 180-1, and this test is where that claim is checked rather than
// assumed.
func TestSHA1StreamMatchesReference(t *testing.T) {
	rng := prng.New(0x57EA)
	msg := make([]byte, 4096)
	for i := range msg {
		msg[i] = byte(rng.Intn(256))
	}
	var s SHA1Stream
	for _, n := range []int{0, 1, 55, 56, 63, 64, 65, 119, 120, 128, 1000, 4096} {
		var ref SHA1Hasher
		ref.Write(msg[:n])
		want := ref.Sum()

		// One-shot write.
		s.Reset()
		s.Write(msg[:n])
		if got := s.Sum(); got != want {
			t.Fatalf("len %d: stream %x != reference %x", n, got, want)
		}

		// Random splits.
		s.Reset()
		for off := 0; off < n; {
			step := 1 + rng.Intn(n-off)
			s.Write(msg[off : off+step])
			off += step
		}
		if got := s.Sum(); got != want {
			t.Fatalf("len %d (split writes): stream diverges from reference", n)
		}
	}
}

// TestSHA1SumMatchesReference pins the stdlib-backed one-shot to the
// from-scratch SHA1 over the same block-boundary lengths.
func TestSHA1SumMatchesReference(t *testing.T) {
	rng := prng.New(0x5A1)
	msg := make([]byte, 4096)
	for i := range msg {
		msg[i] = byte(rng.Intn(256))
	}
	for _, n := range []int{0, 1, 55, 56, 63, 64, 65, 119, 120, 128, 1000, 4096} {
		if got, want := SHA1Sum(msg[:n]), SHA1(msg[:n]); got != want {
			t.Fatalf("len %d: SHA1Sum %x != reference %x", n, got, want)
		}
	}
}

// TestSHA1StreamReuse checks Reset actually restarts the state: a
// reused stream must hash exactly like a fresh one.
func TestSHA1StreamReuse(t *testing.T) {
	var a, b SHA1Stream
	a.Reset()
	a.Write([]byte("poison the state"))
	a.Sum()
	a.Reset()
	a.Write([]byte("payload"))
	b.Write([]byte("payload"))
	if a.Sum() != b.Sum() {
		t.Fatal("Reset did not restore the initial state")
	}
}

// TestSHA1StreamStateRoundTrip pins the snapshot contract: a stream
// captured mid-message and restored into a fresh stream must absorb
// the remaining bytes into the identical digest — including splits
// that leave a partial block buffered in the digest.
func TestSHA1StreamStateRoundTrip(t *testing.T) {
	msg := make([]byte, 300)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	for split := 0; split <= len(msg); split += 13 {
		var a SHA1Stream
		a.Reset()
		a.Write(msg[:split])
		st := a.MarshalState()
		var b SHA1Stream
		if err := b.UnmarshalState(st); err != nil {
			t.Fatalf("split %d: UnmarshalState: %v", split, err)
		}
		a.Write(msg[split:])
		b.Write(msg[split:])
		if a.Sum() != b.Sum() {
			t.Fatalf("split %d: restored stream diverged", split)
		}
		var ref SHA1Stream
		ref.Reset()
		ref.Write(msg)
		if b.Sum() != ref.Sum() {
			t.Fatalf("split %d: restored stream diverged from one-shot reference", split)
		}
	}
}

// TestSHA1StreamAllocFree pins Write and Sum at zero allocations on a
// live stream: the digest is allocated once, and Sum finalizes into the
// stream's own field rather than a buffer that escapes through the
// hash.Hash interface.
func TestSHA1StreamAllocFree(t *testing.T) {
	msg := make([]byte, 200)
	s := new(SHA1Stream)
	s.Reset()
	if n := testing.AllocsPerRun(100, func() {
		s.Reset()
		s.Write(msg[:7])
		s.Write(msg[7:])
		_ = s.Sum()
	}); n != 0 {
		t.Errorf("Reset+Write+Sum allocates %v per call, want 0", n)
	}
}

// Malformed state bytes must error, never panic.
func TestSHA1StreamUnmarshalStateRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {}, {1, 2, 3}, make([]byte, 200)} {
		var s SHA1Stream
		if err := s.UnmarshalState(b); err == nil {
			t.Fatalf("UnmarshalState(%d bytes) accepted garbage", len(b))
		}
	}
}
