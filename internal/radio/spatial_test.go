package radio

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"roborebound/internal/geom"
	"roborebound/internal/obs"
	"roborebound/internal/prng"
	"roborebound/internal/wire"
)

// Differential tests: Deliver, which finds a frame's candidate
// receivers through the uniform grid, must be observationally identical
// to the brute-force scan of every robot — same deliveries in the same
// order, same byte counters, same loss-draw consumption — under
// randomized traffic, randomized motion, fragmentation, link filters,
// transmit delays, and adversarial positions (cell edges, exact decode
// range, NaN/Inf coordinates). The brute-force scan is bruteDeliver
// below: the loop production ran before the grid became its only path.

// bruteDeliver is the reference Deliver: the round set-up and wrap-up
// of Medium.Deliver around the receiver scan that tests every robot of
// the roster per frame, verbatim as it stood in Deliver. It drives the
// Medium it is given through the same per-candidate pipeline
// (deliverTo) and the same sort, so it differs from Deliver only in
// which robots it looks at.
func bruteDeliver(m *Medium, ids []wire.RobotID) []Delivery {
	if len(m.queue) == 0 {
		return nil
	}
	sorted := append(m.sortedBuf[:0], ids...)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	m.sortedBuf = sorted
	m.ctrBuf = make([]*station, len(sorted))

	out := m.outBuf[:0]
	held := m.queue[:0]
	for _, q := range m.queue {
		if q.readyAt > m.deliverTick {
			held = append(held, q)
			continue
		}
		src, ok := m.pos(q.from)
		if !ok {
			continue
		}
		for rank, id := range sorted {
			if id == q.from {
				continue
			}
			if q.frame.Dst != wire.Broadcast && q.frame.Dst != id {
				continue
			}
			dst, ok := m.pos(id)
			if !ok {
				continue
			}
			out = m.deliverTo(q, int32(rank), id, src, dst, out)
		}
	}
	m.outBuf = out
	out = m.sortByRank(out, len(sorted))
	m.queue = held
	m.deliverTick++
	if m.params.MTUBytes > 0 && m.deliverTick%32 == 0 {
		m.expireReassemblers()
	}
	return out
}

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
		if a.To != b.To || a.Frame.Src != b.Frame.Src ||
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

// TestDeliverIndexedMatchesBruteRandom soaks Deliver and the oracle
// with random broadcast/unicast/spoofed traffic over randomly moving
// robots — including robots parked on cell boundaries, at exactly the
// decode range, at NaN positions, and removed from the position table
// — with a loss model consuming RNG draws, a link filter and a
// transmit delay, with and without fragmentation. Any divergence in
// candidate enumeration would desync the loss-draw stream and cascade
// into every later round, so passing rounds compound evidence.
func TestDeliverIndexedMatchesBruteRandom(t *testing.T) {
	for _, mtu := range []int{0, 66} {
		t.Run(fmt.Sprintf("mtu=%d", mtu), func(t *testing.T) {
			rng := prng.New(0xD1FF + uint64(mtu))
			params := DefaultParams()
			params.MTUBytes = mtu

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
			indexed := NewMedium(params, pos.lookup, 77)
			filter := func(from, to wire.RobotID, f wire.Frame) bool {
				return (int(from)+int(to))%11 == 3
			}
			delay := func(from wire.RobotID, f wire.Frame) wire.Tick {
				return wire.Tick(int(from)+len(f.Payload)) % 3
			}
			for _, m := range []*Medium{brute, indexed} {
				m.SetLossModel(UniformLoss{Rate: 0.25})
				m.SetLinkFilter(filter)
				m.SetTxDelay(delay)
			}

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
				deliveriesEqual(t, round, bruteDeliver(brute, ids), indexed.Deliver(ids))
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
// cell corners, and at non-finite positions — Deliver must agree with
// the oracle on every one, and the clear-cut cases must go the
// expected way.
func TestDeliverIndexedRangeBoundary(t *testing.T) {
	params := DefaultParams()
	r := params.RangeM()
	cell := r / 2

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
			indexed := NewMedium(params, pos.lookup, 1)
			f := wire.Frame{Src: 1, Dst: wire.Broadcast, Payload: []byte("ping")}
			brute.Send(1, f)
			indexed.Send(1, f)
			db := bruteDeliver(brute, ids)
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
// heard by everyone under the brute scan (NaN received power is not
// below sensitivity); the grid must preserve that, not lose the frame
// to a cell-coordinate conversion.
func TestDeliverIndexedNaNTransmitter(t *testing.T) {
	params := DefaultParams()
	pos := posTable{
		1: geom.V(math.NaN(), math.NaN()),
		2: geom.V(0, 0),
		3: geom.V(1e9, -1e9), // far outside any plausible range
	}
	ids := []wire.RobotID{1, 2, 3}
	brute := NewMedium(params, pos.lookup, 1)
	indexed := NewMedium(params, pos.lookup, 1)
	f := wire.Frame{Src: 1, Dst: wire.Broadcast, Payload: []byte("x")}
	brute.Send(1, f)
	indexed.Send(1, f)
	db := bruteDeliver(brute, ids)
	di := indexed.Deliver(ids)
	deliveriesEqual(t, 0, db, di)
	if len(db) != 2 {
		t.Fatalf("NaN transmitter should reach both receivers under the brute scan, got %v", db)
	}
}

// TestDeliverDegenerateRange pins the link models whose RangeM no cell
// size fits — zero, negative, NaN, +Inf. Every robot is then a
// candidate and the power check alone decides, which is what the brute
// scan does; the table also parks a transmitter at a NaN position and
// draws loss, so a candidate enumerated out of roster order would
// desync the two media for good.
func TestDeliverDegenerateRange(t *testing.T) {
	cases := []struct {
		name    string
		tune    func(*Params)
		isRange func(float64) bool
	}{
		{"zero", func(p *Params) { p.RefDistM = 0 }, func(r float64) bool { return r == 0 }},
		{"zero by budget", func(p *Params) { p.TxPowerDBm = math.Inf(-1) }, func(r float64) bool { return r == 0 }},
		{"negative", func(p *Params) { p.RefDistM = -1 }, func(r float64) bool { return r < 0 }},
		{"NaN", func(p *Params) { p.TxPowerDBm = math.NaN() }, math.IsNaN},
		{"+Inf", func(p *Params) { p.PathLossExp = 0 }, func(r float64) bool { return math.IsInf(r, 1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			params := DefaultParams()
			tc.tune(&params)
			if r := params.RangeM(); !tc.isRange(r) {
				t.Fatalf("RangeM = %v: the case does not build the range it names", r)
			}
			pos := posTable{
				1: geom.V(0, 0), 2: geom.V(0, 0), 3: geom.V(0.5, 0), 4: geom.V(150, 0),
				5: geom.V(1e6, 1e6), 6: geom.V(math.NaN(), 0), 7: geom.V(math.Inf(1), 0),
			}
			ids := []wire.RobotID{7, 3, 1, 6, 2, 5, 4, 8} // unsorted; 8 has no position
			brute := NewMedium(params, pos.lookup, 5)
			indexed := NewMedium(params, pos.lookup, 5)
			for _, m := range []*Medium{brute, indexed} {
				m.SetLossModel(UniformLoss{Rate: 0.3})
			}
			delivered := 0
			for round := 0; round < 6; round++ {
				for _, from := range []wire.RobotID{1, 6, 4} { // finite, NaN, finite
					f := wire.Frame{Src: from, Dst: wire.Broadcast, Payload: []byte("ping")}
					brute.Send(from, f)
					indexed.Send(from, f)
				}
				got := indexed.Deliver(ids)
				deliveriesEqual(t, round, bruteDeliver(brute, ids), got)
				delivered += len(got)
			}
			countersEqual(t, ids, brute, indexed)
			if delivered == 0 {
				t.Fatal("nothing was delivered — the case is vacuous")
			}
		})
	}
}

// TestSendSteadyStateAllocations pins Send and enqueue at zero
// allocations: Send measures frame sizes arithmetically
// (Frame.EncodedSize) instead of encoding every frame, so 1000
// unfragmented Sends plus the drain allocate nothing once the queue has
// grown; the old Encode-to-measure path costs ≥1 allocation per Send.
// At an MTU, a frame that fits allocates nothing and a fragmented one
// allocates once, however many fragments it is cut into.
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
	if allocs != 0 {
		t.Fatalf("1000 Sends + drain allocate %.0f times, want 0 (is Send encoding frames again?)", allocs)
	}

	// At the RFM69's 66-byte MTU a frame that fits is enqueued as it is,
	// and a fragmented one costs the one buffer its fragments share.
	p := DefaultParams()
	p.MTUBytes = 66
	m = NewMedium(p, pos, 1)
	fits := wire.Frame{Src: 1, Dst: wire.Broadcast, Payload: make([]byte, 66-wire.FrameHeaderSize)}
	big := wire.Frame{Src: 1, Dst: 2, Flags: wire.FlagAudit, Payload: make([]byte, 2000)}
	for i := 0; i < 64; i++ { // grow the queue and the encode scratch
		m.Send(1, fits)
		m.Send(1, big)
	}
	m.Deliver(nil)
	for _, c := range []struct {
		name string
		f    wire.Frame
		want float64
	}{{"a frame that fits", fits, 0}, {"a fragmented frame", big, 1}} {
		allocs := testing.AllocsPerRun(100, func() {
			m.Send(1, c.f)
			m.Deliver(nil)
		})
		if allocs != c.want {
			t.Errorf("at MTU 66, sending %s allocates %.0f times, want %.0f", c.name, allocs, c.want)
		}
	}
}

// TestDeliverSteadyStateAllocations pins the delivery round at zero
// allocations once its scratch has grown: Deliver, and through it
// deliverTo, stationAt and sortByRank, on a 40-robot lattice where
// every frame has in-range receivers. The second run turns on every
// hook the pipeline branches on — loss draws, a link filter, transmit
// delays holding frames across rounds, a tracer, a metrics registry,
// and unicast frames — so each branch's steady state is pinned too.
func TestDeliverSteadyStateAllocations(t *testing.T) {
	pos := posMap{}
	ids := make([]wire.RobotID, 40)
	for i := range ids {
		ids[i] = wire.RobotID(i + 1)
		pos[ids[i]] = geom.V(float64(i%8)*20, float64(i/8)*20)
	}
	payload := make([]byte, 48)
	for _, hooked := range []bool{false, true} {
		t.Run(fmt.Sprintf("hooks=%v", hooked), func(t *testing.T) {
			m := NewMedium(DefaultParams(), pos.fn, 3)
			if hooked {
				m.SetLossModel(UniformLoss{Rate: 0.2})
				m.SetLinkFilter(func(from, to wire.RobotID, _ wire.Frame) bool { return (from+to)%7 == 0 })
				m.SetTxDelay(func(from wire.RobotID, _ wire.Frame) wire.Tick { return wire.Tick(from % 3) })
				m.SetObs(obs.NewFlightRecorder(ids[0]), obs.NewRegistry())
			}
			delivered := 0
			round := func() {
				for i, id := range ids {
					f := wire.Frame{Src: id, Dst: wire.Broadcast, Payload: payload}
					if hooked && i%5 == 0 {
						f.Dst = ids[(i+7)%len(ids)]
					}
					m.Send(id, f)
				}
				delivered += len(m.Deliver(ids))
			}
			for i := 0; i < 50; i++ { // grow every scratch buffer and ring
				round()
			}
			if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
				t.Fatalf("a delivery round allocates %.0f times at steady state, want 0", allocs)
			}
			var dropped uint64
			for _, id := range ids {
				dropped += m.Counters(id).Dropped
			}
			if delivered == 0 || hooked != (dropped > 0) {
				t.Fatalf("%d delivered, %d dropped — the pin does not exercise what it names", delivered, dropped)
			}
		})
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
