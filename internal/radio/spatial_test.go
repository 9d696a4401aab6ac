package radio

import (
	"fmt"
	"math"
	"testing"

	"roborebound/internal/geom"
	"roborebound/internal/prng"
	"roborebound/internal/wire"
)

// Differential tests: a Medium with Params.SpatialIndex must be
// observationally identical to the brute-force scan — same deliveries
// in the same order, same byte counters, same loss-draw consumption —
// under randomized traffic, randomized motion, fragmentation, link
// filters, and adversarial positions (cell edges, exact decode range,
// NaN/Inf coordinates).

type posTable map[wire.RobotID]geom.Vec2

func (p posTable) lookup(id wire.RobotID) (geom.Vec2, bool) {
	v, ok := p[id]
	return v, ok
}

func deliveriesEqual(t *testing.T, round int, brute, indexed []Delivery) {
	t.Helper()
	if len(brute) != len(indexed) {
		t.Fatalf("round %d: brute delivered %d frames, indexed %d\nbrute:   %v\nindexed: %v",
			round, len(brute), len(indexed), brute, indexed)
	}
	for i := range brute {
		a, b := brute[i], indexed[i]
		if a.To != b.To || a.seq != b.seq || a.Frame.Src != b.Frame.Src ||
			a.Frame.Dst != b.Frame.Dst || a.Frame.Flags != b.Frame.Flags ||
			string(a.Frame.Payload) != string(b.Frame.Payload) {
			t.Fatalf("round %d: delivery %d diverges: brute %+v, indexed %+v", round, i, a, b)
		}
	}
}

func countersEqual(t *testing.T, ids []wire.RobotID, brute, indexed *Medium) {
	t.Helper()
	for _, id := range ids {
		a, b := *brute.Counters(id), *indexed.Counters(id)
		if a != b {
			t.Fatalf("robot %d counters diverge: brute %+v, indexed %+v", id, a, b)
		}
	}
}

// TestDeliverIndexedMatchesBruteRandom soaks both paths with random
// broadcast/unicast/spoofed traffic over randomly moving robots —
// including robots parked on cell boundaries, at exactly the decode
// range, at NaN positions, and removed from the position table — with
// a loss model consuming RNG draws and a link filter, with and without
// fragmentation. Any divergence in candidate enumeration would desync
// the loss-draw stream and cascade into every later round, so passing
// rounds compound evidence.
func TestDeliverIndexedMatchesBruteRandom(t *testing.T) {
	for _, mtu := range []int{0, 66} {
		t.Run(fmt.Sprintf("mtu=%d", mtu), func(t *testing.T) {
			rng := prng.New(0xD1FF + uint64(mtu))
			params := DefaultParams()
			params.LossRate = 0.25
			params.MTUBytes = mtu
			iparams := params
			iparams.SpatialIndex = true

			const n = 40
			r := params.RangeM()
			cell := r / 2
			ids := make([]wire.RobotID, n)
			pos := posTable{}
			randPos := func() geom.Vec2 {
				switch rng.Intn(8) {
				case 0: // exact cell-boundary multiples
					return geom.V(float64(rng.Intn(9)-4)*cell, float64(rng.Intn(9)-4)*cell)
				case 1: // exactly one decode range from the origin robot
					return geom.V(r, 0)
				case 2: // one ulp around the decode range
					return geom.V(math.Nextafter(r, rng.Range(0, 2*r)), 0)
				case 3: // non-finite
					vals := []float64{math.NaN(), math.Inf(1), rng.Range(-r, r)}
					return geom.V(vals[rng.Intn(3)], vals[rng.Intn(3)])
				default:
					return geom.V(rng.Range(-1.5*r, 1.5*r), rng.Range(-1.5*r, 1.5*r))
				}
			}
			for i := range ids {
				ids[i] = wire.RobotID(i + 1)
				pos[ids[i]] = randPos()
			}
			pos[1] = geom.V(0, 0) // anchor for the "exactly r" cases

			brute := NewMedium(params, pos.lookup, 77)
			indexed := NewMedium(iparams, pos.lookup, 77)
			filter := func(from, to wire.RobotID, f wire.Frame) bool {
				return (int(from)+int(to))%11 == 3
			}
			brute.SetLinkFilter(filter)
			indexed.SetLinkFilter(filter)

			rounds := 80
			if testing.Short() {
				rounds = 20
			}
			for round := 0; round < rounds; round++ {
				for s := rng.Intn(8); s > 0; s-- {
					from := ids[rng.Intn(n)]
					f := wire.Frame{Src: from, Dst: wire.Broadcast}
					if rng.Intn(4) == 0 {
						f.Src = ids[rng.Intn(n)] // spoofed claimed source
					}
					if rng.Intn(3) == 0 {
						f.Dst = ids[rng.Intn(n)] // unicast, sometimes to self
					}
					if rng.Intn(3) == 0 {
						f.Flags |= wire.FlagAudit
					}
					f.Payload = make([]byte, rng.Intn(200))
					for i := range f.Payload {
						f.Payload[i] = byte(rng.Intn(256))
					}
					brute.Send(from, f)
					indexed.Send(from, f)
				}
				deliveriesEqual(t, round, brute.Deliver(ids), indexed.Deliver(ids))
				// Move a few robots; occasionally drop one from the
				// position table entirely (its radio went dark).
				for moves := rng.Intn(6); moves > 0; moves-- {
					id := ids[rng.Intn(n)]
					if rng.Intn(10) == 0 {
						delete(pos, id)
					} else {
						pos[id] = randPos()
					}
				}
			}
			countersEqual(t, ids, brute, indexed)
		})
	}
}

// TestDeliverIndexedRangeBoundary pins the decode-range boundary: a
// receiver exactly RangeM away, one ulp inside, one ulp outside, on
// cell corners, and at non-finite positions — both paths must agree
// on every one, and the clear-cut cases must go the expected way.
func TestDeliverIndexedRangeBoundary(t *testing.T) {
	params := DefaultParams()
	r := params.RangeM()
	cell := r / 2
	iparams := params
	iparams.SpatialIndex = true

	cases := []struct {
		name   string
		rxPos  geom.Vec2
		expect int // 1 = must deliver, 0 = must not, -1 = just agree
	}{
		{"well inside", geom.V(0.5*r, 0), 1},
		{"exactly RangeM", geom.V(r, 0), -1},
		{"ulp inside", geom.V(math.Nextafter(r, 0), 0), -1},
		{"ulp outside", geom.V(math.Nextafter(r, 2*r), 0), -1},
		{"well outside", geom.V(1.01*r, 0), 0},
		{"cell corner", geom.V(cell, cell), 1},
		{"two cells out", geom.V(2*cell, 0), -1}, // 2*cell == r up to rounding
		{"negative cell corner", geom.V(-cell, -cell), 1},
		{"NaN position", geom.V(math.NaN(), 0), 1}, // NaN power is not < sensitivity
		{"Inf position", geom.V(math.Inf(1), 0), 0},
		{"far outside grid clamp", geom.V(1<<40, 0), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pos := posTable{1: geom.V(0, 0), 2: tc.rxPos}
			ids := []wire.RobotID{1, 2}
			brute := NewMedium(params, pos.lookup, 1)
			indexed := NewMedium(iparams, pos.lookup, 1)
			f := wire.Frame{Src: 1, Dst: wire.Broadcast, Payload: []byte("ping")}
			brute.Send(1, f)
			indexed.Send(1, f)
			db := brute.Deliver(ids)
			di := indexed.Deliver(ids)
			deliveriesEqual(t, 0, db, di)
			switch tc.expect {
			case 1:
				if len(db) != 1 {
					t.Fatalf("expected delivery, got %v", db)
				}
			case 0:
				if len(db) != 0 {
					t.Fatalf("expected no delivery, got %v", db)
				}
			}
		})
	}
}

// TestDeliverIndexedNaNTransmitter: a transmitter at a NaN position is
// heard by everyone on the brute path (NaN received power is not below
// sensitivity); the indexed path must preserve that, not lose the
// frame to a cell-coordinate conversion.
func TestDeliverIndexedNaNTransmitter(t *testing.T) {
	params := DefaultParams()
	iparams := params
	iparams.SpatialIndex = true
	pos := posTable{
		1: geom.V(math.NaN(), math.NaN()),
		2: geom.V(0, 0),
		3: geom.V(1e9, -1e9), // far outside any plausible range
	}
	ids := []wire.RobotID{1, 2, 3}
	brute := NewMedium(params, pos.lookup, 1)
	indexed := NewMedium(iparams, pos.lookup, 1)
	f := wire.Frame{Src: 1, Dst: wire.Broadcast, Payload: []byte("x")}
	brute.Send(1, f)
	indexed.Send(1, f)
	db := brute.Deliver(ids)
	di := indexed.Deliver(ids)
	deliveriesEqual(t, 0, db, di)
	if len(db) != 2 {
		t.Fatalf("NaN transmitter should reach both receivers on the brute path, got %v", db)
	}
}

// TestSendSteadyStateAllocations pins the satellite fix: Send measures
// frame sizes arithmetically (Frame.EncodedSize) instead of encoding
// every frame, so the unfragmented steady state allocates nothing per
// Send. The bound is per 1000 sends plus one drain, so even the
// drain's own bookkeeping stays visibly tiny; the old
// Encode-to-measure path costs ≥1 allocation per Send (≥1000 here).
func TestSendSteadyStateAllocations(t *testing.T) {
	pos := func(wire.RobotID) (geom.Vec2, bool) { return geom.V(0, 0), true }
	m := NewMedium(DefaultParams(), pos, 1)
	f := wire.Frame{Src: 1, Dst: wire.Broadcast, Payload: make([]byte, 64)}
	for i := 0; i < 4096; i++ { // grow the queue's backing array
		m.Send(1, f)
	}
	m.Deliver(nil)
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			m.Send(1, f)
		}
		m.Deliver(nil)
	})
	if allocs > 8 {
		t.Fatalf("1000 Sends + drain allocate %.0f times, want ≤8 (is Send encoding frames again?)", allocs)
	}
}

func BenchmarkSend(b *testing.B) {
	pos := func(wire.RobotID) (geom.Vec2, bool) { return geom.V(0, 0), true }
	m := NewMedium(DefaultParams(), pos, 1)
	f := wire.Frame{Src: 1, Dst: wire.Broadcast, Payload: make([]byte, 64)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Send(1, f)
		if i%1024 == 1023 {
			m.Deliver(nil)
		}
	}
}

// TestDeliverResultGrowsGeometrically pins the satellite fix: the
// buffer backing Deliver's result grows geometrically, not to exactly
// the round's delivery count. A dense flock's count creeps up a frame
// at a time for most of a run, and exact growth reallocated the whole
// ~1 MB slice on every new maximum (one reallocation per round here).
func TestDeliverResultGrowsGeometrically(t *testing.T) {
	m := newTestMedium(posMap{1: geom.V(0, 0), 2: geom.V(10, 0)})
	ids := []wire.RobotID{1, 2}
	f := wire.Frame{Src: 1, Dst: wire.Broadcast, Payload: []byte("x")}

	const first, rounds = 256, 200
	var backing *Delivery
	moved := 0
	for n := first; n < first+rounds; n++ {
		for i := 0; i < n; i++ {
			m.Send(1, f)
		}
		got := m.Deliver(ids)
		if len(got) != n {
			t.Fatalf("round of %d sends delivered %d frames", n, len(got))
		}
		if &got[0] != backing {
			backing = &got[0]
			moved++
		}
	}
	// 256 → 455 deliveries is under one doubling: the first round's
	// allocation plus at most a few 1.25x steps.
	if moved > 4 {
		t.Fatalf("result buffer reallocated in %d of %d rounds whose delivery count rose by one; want ≤ 4 (is sortByRank growing to exactly len(out) again?)", moved, rounds)
	}
}
