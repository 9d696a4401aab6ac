package prng

import "testing"

// The golden vectors below pin the exact output stream of the
// generator. TestStreamPinned only proves self-consistency within one
// build; these literals prove cross-build, cross-machine stability —
// the property deterministic replay and the paper-figure experiments
// actually rely on. If any of these fail, the algorithm changed and
// every recorded experiment output is invalidated: bump the
// algorithm's version notice in the package comment and regenerate
// EXPERIMENTS.md's paper-vs-measured tables (BENCH_history.ndjson's
// allocation rows then no longer compare with new readings) rather than
// updating the constants casually.
//
// seed 0 doubles as a cross-reference against the canonical
// xoshiro256** + SplitMix64 reference implementation.
var goldenStreams = map[uint64][4]uint64{
	0:          {0x99ec5f36cb75f2b4, 0xbf6e1f784956452a, 0x1a5f849d4933e6e0, 0x6aa594f1262d2d2c},
	1:          {0xb3f2af6d0fc710c5, 0x853b559647364cea, 0x92f89756082a4514, 0x642e1c7bc266a3a7},
	42:         {0x15780b2e0c2ec716, 0x6104d9866d113a7e, 0xae17533239e499a1, 0xecb8ad4703b360a1},
	12345:      {0xbe6a36374160d49b, 0x214aaa0637a688c6, 0xf69d16de9954d388, 0x0c60048c4e96e033},
	0xdeadbeef: {0xc5555444a74d7e83, 0x65c30d37b4b16e38, 0x54f773200a4efa23, 0x429aed75fb958af7},
}

func TestGoldenStreams(t *testing.T) {
	for seed, want := range goldenStreams {
		s := New(seed)
		for i, w := range want {
			if g := s.Uint64(); g != w {
				t.Errorf("seed %#x draw %d = %#016x, want %#016x (ALGORITHM CHANGED: all recorded experiments are invalidated)",
					seed, i, g, w)
			}
		}
	}
}

// Fork derivation is part of the stream contract too: each robot's
// per-stream seed comes from Fork, so a change here reshuffles every
// multi-robot experiment even if Uint64 itself is untouched.
func TestGoldenFork(t *testing.T) {
	f := New(42).Fork()
	want := [2]uint64{0x866ed7098f821de2, 0x37d0b43cef13cdf7}
	for i, w := range want {
		if g := f.Uint64(); g != w {
			t.Errorf("fork(42) draw %d = %#016x, want %#016x", i, g, w)
		}
	}
}

// Derived distributions are pinned through the same stream: Float64's
// bit-to-float mapping and Shuffle's swap sequence are observable in
// recorded experiment outputs.
func TestGoldenDerived(t *testing.T) {
	s := New(7)
	if g := s.Float64(); g != 0.7005764821796896 {
		t.Errorf("Float64 #1 = %v", g)
	}
	if g := s.Float64(); g != 0.2787512294737843 {
		t.Errorf("Float64 #2 = %v", g)
	}
	p := New(9).Perm(8)
	want := []int{2, 3, 6, 4, 1, 5, 7, 0}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("Perm(8) = %v, want %v", p, want)
		}
	}
}

// Snapshot/restore contract: SetState(State()) must resume the exact
// stream. The mid-stream states and the draws that follow them are
// golden vectors — they pin the State layout itself (word order of
// the xoshiro256** state), not just end-to-end behavior, so a codec
// that silently permuted words would fail here even though a pure
// round-trip test would pass.
func TestGoldenStateRoundTrip(t *testing.T) {
	type vec struct {
		seed  uint64
		skip  int
		state [4]uint64
		next  [3]uint64
	}
	vecs := []vec{
		{seed: 0, skip: 2,
			state: [4]uint64{0x42ccf76e969d9edd, 0x267e53e3c2b94c43, 0x7a748df3423ca157, 0xb6ed46c3ef32a7ce},
			next:  [3]uint64{0x1a5f849d4933e6e0, 0x6aa594f1262d2d2c, 0xbba5ad4a1f842e59}},
		{seed: 42, skip: 5,
			state: [4]uint64{0x7e3fedbea92a13a5, 0xc9a25ba0f11c828c, 0xc38346747039f414, 0xcf55c271f2386fa5},
			next:  [3]uint64{0xc50da53101795238, 0xb82154855a65ddb2, 0xd99a2743ebe60087}},
		{seed: 0xdeadbeef, skip: 0,
			state: [4]uint64{0x4adfb90f68c9eb9b, 0xde586a3141a10922, 0x021fbc2f8e1cfc1d, 0x7466ce737be16790},
			next:  [3]uint64{0xc5555444a74d7e83, 0x65c30d37b4b16e38, 0x54f773200a4efa23}},
	}
	for _, v := range vecs {
		s := New(v.seed)
		for i := 0; i < v.skip; i++ {
			s.Uint64()
		}
		st := s.State()
		if st != v.state {
			t.Errorf("seed %#x after %d draws: State() = %#016x, want %#016x (STATE LAYOUT CHANGED: snapshots from prior builds will not restore)",
				v.seed, v.skip, st, v.state)
			continue
		}
		restored := New(0xffffffffffffffff) // deliberately different seed
		if err := restored.SetState(st); err != nil {
			t.Fatalf("seed %#x: SetState: %v", v.seed, err)
		}
		for i, w := range v.next {
			if g := restored.Uint64(); g != w {
				t.Errorf("seed %#x resumed draw %d = %#016x, want %#016x", v.seed, i, g, w)
			}
		}
		// The original must be untouched by State(): it emits the same
		// remaining stream the restored copy just did, and the two stay
		// in lockstep afterwards.
		for i, w := range v.next {
			if g := s.Uint64(); g != w {
				t.Errorf("seed %#x: State() disturbed the original at draw %d: %#016x, want %#016x", v.seed, i, g, w)
			}
		}
		for i := 0; i < 64; i++ {
			if av, bv := s.Uint64(), restored.Uint64(); av != bv {
				t.Fatalf("seed %#x: original and restored diverged at resumed draw %d", v.seed, i)
			}
		}
	}
}

// An all-zero state would leave xoshiro256** emitting zero forever;
// SetState must refuse it so a corrupted snapshot surfaces as an error
// rather than a dead stream.
func TestSetStateRejectsZero(t *testing.T) {
	s := New(1)
	if err := s.SetState([4]uint64{}); err == nil {
		t.Fatal("SetState accepted the all-zero state")
	}
	if g, w := s.Uint64(), New(1).Uint64(); g != w {
		t.Fatalf("rejected SetState clobbered the stream: %#x vs %#x", g, w)
	}
}

// Streams must also be stable under interleaving with Fork: forking
// advances the parent by exactly one draw, no more.
func TestForkAdvancesParentOnce(t *testing.T) {
	a, b := New(5), New(5)
	a.Fork()
	b.Uint64()
	for i := 0; i < 16; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("Fork consumed more than one parent draw (diverged at %d: %#x vs %#x)", i, av, bv)
		}
	}
}
