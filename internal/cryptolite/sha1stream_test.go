package cryptolite

import (
	"bytes"
	stdsha1 "crypto/sha1"
	"encoding"
	"fmt"
	"testing"

	"roborebound/internal/prng"
)

// onEachPath runs f once on the SHA-NI kernel (skipped on a CPU
// without it) and once on the standard library fallback, as every host
// without the kernel runs.
func onEachPath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	t.Run("kernel", func(t *testing.T) {
		if !hasSHANI() {
			t.Skip("CPU has no SHA extensions")
		}
		f(t)
	})
	t.Run("fallback", func(t *testing.T) {
		forceFallback(t)
		f(t)
	})
}

// forceFallback runs the rest of t on the standard library digest.
func forceFallback(t *testing.T) {
	saved := useKernel
	useKernel = false
	t.Cleanup(func() { useKernel = saved })
}

// writeSplit writes msg into s in random pieces.
func writeSplit(s *SHA1Stream, msg []byte, rng *prng.Source) {
	for off := 0; off < len(msg); {
		step := 1 + rng.Intn(len(msg)-off)
		s.Write(msg[off : off+step])
		off += step
	}
}

func randomMessage(seed uint64, n int) []byte {
	rng := prng.New(seed)
	msg := make([]byte, n)
	for i := range msg {
		msg[i] = byte(rng.Intn(256))
	}
	return msg
}

// TestSHA1StreamMatchesReference pins the stream to the from-scratch
// SHA1Hasher bit for bit, on both paths, at every length through 3000
// bytes, written whole and in random splits. This is the license for
// the streaming hash chain to use SHA1Stream: all of them implement
// FIPS 180-1, and this test is where that claim is checked rather than
// assumed.
func TestSHA1StreamMatchesReference(t *testing.T) {
	msg := randomMessage(0x57EA, 3000)
	onEachPath(t, func(t *testing.T) {
		rng := prng.New(0x5917)
		var s SHA1Stream
		for n := 0; n <= len(msg); n++ {
			want := SHA1(msg[:n])
			s.Reset()
			s.Write(msg[:n])
			if got := s.Sum(); got != want {
				t.Fatalf("len %d: stream %x != reference %x", n, got, want)
			}
			s.Reset()
			writeSplit(&s, msg[:n], rng)
			if got := s.Sum(); got != want {
				t.Fatalf("len %d (split writes): stream %x != reference %x", n, got, want)
			}
			if s.Len() != uint64(n) {
				t.Fatalf("len %d: Len() = %d", n, s.Len())
			}
		}
	})
}

// TestSHA1SumMatchesReference pins the one-shot to the from-scratch
// SHA1, on both paths, at every length through 3000 bytes.
func TestSHA1SumMatchesReference(t *testing.T) {
	msg := randomMessage(0x5A1, 3000)
	onEachPath(t, func(t *testing.T) {
		for n := 0; n <= len(msg); n++ {
			if got, want := SHA1Sum(msg[:n]), SHA1(msg[:n]); got != want {
				t.Fatalf("len %d: SHA1Sum %x != reference %x", n, got, want)
			}
		}
	})
}

// TestSHA1StreamStateIsStdlibFormat pins MarshalState, on both paths,
// to crypto/sha1's MarshalBinary at every split of a message: the
// snapshot bytes of a chain caught mid-batch do not depend on the path.
func TestSHA1StreamStateIsStdlibFormat(t *testing.T) {
	msg := randomMessage(0xF0, 300)
	onEachPath(t, func(t *testing.T) {
		for split := 0; split <= len(msg); split++ {
			var s SHA1Stream
			s.Write(msg[:split])
			ref := stdsha1.New()
			ref.Write(msg[:split])
			want, err := ref.(encoding.BinaryMarshaler).MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if got := s.MarshalState(); !bytes.Equal(got, want) {
				t.Fatalf("split %d: state %x, crypto/sha1 %x", split, got, want)
			}
		}
	})
}

// TestSHA1StreamStateCrossesPaths checks that a state captured on one
// path resumes on the other to the same digest, so a snapshot taken on
// a host with SHA-NI resumes on one without it, and back.
func TestSHA1StreamStateCrossesPaths(t *testing.T) {
	if !hasSHANI() {
		t.Skip("CPU has no SHA extensions")
	}
	msg := randomMessage(0xC505, 300)
	want := SHA1(msg)
	for _, from := range []bool{true, false} {
		for split := 0; split <= len(msg); split += 7 {
			useKernel = from
			var a SHA1Stream
			a.Write(msg[:split])
			st := a.MarshalState()
			useKernel = !from
			var b SHA1Stream
			err := b.UnmarshalState(st)
			useKernel = true
			if err != nil {
				t.Fatalf("kernel=%v split %d: UnmarshalState: %v", from, split, err)
			}
			if b.Len() != uint64(split) {
				t.Fatalf("kernel=%v split %d: restored Len() = %d", from, split, b.Len())
			}
			b.Write(msg[split:])
			if got := b.Sum(); got != want {
				t.Fatalf("kernel=%v split %d: resumed on the other path to %x, want %x", from, split, got, want)
			}
		}
	}
}

// TestSHA1Blocks pins the compression count to the padded message's
// length in blocks: the message, the 0x80 byte and the 8-byte length,
// rounded up to 64 bytes.
func TestSHA1Blocks(t *testing.T) {
	for n := uint64(0); n < 300; n++ {
		if got, want := SHA1Blocks(n), (n+1+8+63)/64; got != want {
			t.Fatalf("SHA1Blocks(%d) = %d, want %d", n, got, want)
		}
	}
}

// FuzzSHA1Stream feeds one message through the kernel and the fallback
// in the same random splits, capturing and restoring the state at one
// of them, and checks both against the from-scratch reference.
func FuzzSHA1Stream(f *testing.F) {
	f.Add([]byte(""), uint64(1), uint16(0))
	f.Add([]byte("abc"), uint64(2), uint16(1))
	f.Add(bytes.Repeat([]byte{0xA5}, 200), uint64(3), uint16(64))
	f.Fuzz(func(t *testing.T, msg []byte, seed uint64, at uint16) {
		want := SHA1(msg)
		split := int(at) % (len(msg) + 1)
		saved := useKernel
		defer func() { useKernel = saved }()
		for _, kernel := range []bool{hasSHANI(), false} {
			useKernel = kernel
			var s SHA1Stream
			rng := prng.New(seed)
			writeSplit(&s, msg[:split], rng)
			var r SHA1Stream
			if err := r.UnmarshalState(s.MarshalState()); err != nil {
				t.Fatalf("kernel=%v: UnmarshalState: %v", kernel, err)
			}
			writeSplit(&r, msg[split:], rng)
			if got := r.Sum(); got != want {
				t.Fatalf("kernel=%v: %x, want %x", kernel, got, want)
			}
			if got := SHA1Sum(msg); got != want {
				t.Fatalf("kernel=%v: SHA1Sum %x, want %x", kernel, got, want)
			}
		}
	})
}

// TestSHA1StreamReuse checks Reset actually restarts the state: a
// reused stream must hash exactly like a fresh one.
func TestSHA1StreamReuse(t *testing.T) {
	onEachPath(t, func(t *testing.T) {
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
	})
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
	want := SHA1(msg)
	onEachPath(t, func(t *testing.T) {
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
			if b.Sum() != want {
				t.Fatalf("split %d: restored stream diverged from one-shot reference", split)
			}
		}
	})
}

// TestSHA1StreamAllocFree pins Write and Sum at zero allocations on a
// live stream, on both paths: the kernel's digest lives in the stream,
// the fallback's is allocated once, and Sum finalizes into the stream's
// own buffer rather than one that escapes through the hash.Hash
// interface.
func TestSHA1StreamAllocFree(t *testing.T) {
	msg := make([]byte, 200)
	onEachPath(t, func(t *testing.T) {
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
	})
}

// TestSHA1SumAllocFree pins the one-shot at zero allocations on the
// kernel: its digest stays on the stack.
func TestSHA1SumAllocFree(t *testing.T) {
	if !hasSHANI() {
		t.Skip("CPU has no SHA extensions")
	}
	msg := make([]byte, 3000)
	if n := testing.AllocsPerRun(100, func() { _ = SHA1Sum(msg) }); n != 0 {
		t.Errorf("SHA1Sum allocates %v per call, want 0", n)
	}
}

// Malformed state bytes must error, never panic, and leave the stream
// reset.
func TestSHA1StreamUnmarshalStateRejectsGarbage(t *testing.T) {
	onEachPath(t, func(t *testing.T) {
		for _, b := range [][]byte{nil, {}, {1, 2, 3}, make([]byte, 200), append([]byte("sha\x01"), make([]byte, 91)...)} {
			var s SHA1Stream
			s.Write([]byte("stale"))
			if err := s.UnmarshalState(b); err == nil {
				t.Fatalf("UnmarshalState(%d bytes) accepted garbage", len(b))
			}
			if s.Sum() != SHA1(nil) {
				t.Fatalf("UnmarshalState(%d bytes) left the stream unreset", len(b))
			}
		}
	})
}

// BenchmarkSHA1Stream times a Reset, one Write and a Sum of n bytes on
// each path; SHA1Blocks(n) compressions each.
func BenchmarkSHA1Stream(b *testing.B) {
	for _, n := range []int{64, 512, 4096} {
		msg := randomMessage(uint64(n), n)
		for _, path := range []struct {
			name   string
			kernel bool
		}{{"kernel", true}, {"fallback", false}} {
			b.Run(fmt.Sprintf("%s/%dB", path.name, n), func(b *testing.B) {
				if path.kernel && !hasSHANI() {
					b.Skip("CPU has no SHA extensions")
				}
				saved := useKernel
				useKernel = path.kernel
				defer func() { useKernel = saved }()
				var s SHA1Stream
				b.SetBytes(int64(n))
				for i := 0; i < b.N; i++ {
					s.Reset()
					s.Write(msg)
					_ = s.Sum()
				}
			})
		}
	}
}
