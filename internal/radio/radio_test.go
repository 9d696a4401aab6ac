package radio

import (
	"math"
	"slices"
	"testing"

	"roborebound/internal/geom"
	"roborebound/internal/obs"
	"roborebound/internal/wire"
)

func TestPathLossModel(t *testing.T) {
	p := DefaultParams()
	// §4: 36.05 dB at 1 m.
	if got := p.PathLossDB(1); math.Abs(got-36.05) > 1e-9 {
		t.Errorf("loss(1m) = %v, want 36.05", got)
	}
	// Exponent 3: +30 dB per decade.
	if got := p.PathLossDB(10) - p.PathLossDB(1); math.Abs(got-30) > 1e-9 {
		t.Errorf("loss slope = %v dB/decade, want 30", got)
	}
	// Below the reference distance, loss is pinned at the reference.
	if got := p.PathLossDB(0.1); got != 36.05 {
		t.Errorf("loss(<ref) = %v, want clamped 36.05", got)
	}
}

func TestRangeConsistent(t *testing.T) {
	p := DefaultParams()
	r := p.RangeM()
	if r < 150 || r > 250 {
		t.Errorf("range = %vm; expected ≈199m for the default budget", r)
	}
	// At the range boundary the received power equals the sensitivity.
	if got := p.RxPowerDBm(r); math.Abs(got-p.RxSensitivityDBm) > 1e-9 {
		t.Errorf("RxPower(range) = %v, want sensitivity %v", got, p.RxSensitivityDBm)
	}
	if p.RxPowerDBm(r*1.01) >= p.RxSensitivityDBm {
		t.Error("power beyond range should be below sensitivity")
	}
}

type posMap map[wire.RobotID]geom.Vec2

func (p posMap) fn(id wire.RobotID) (geom.Vec2, bool) {
	v, ok := p[id]
	return v, ok
}

func newTestMedium(pos posMap) *Medium {
	return NewMedium(DefaultParams(), pos.fn, 1)
}

func TestBroadcastDelivery(t *testing.T) {
	pos := posMap{1: geom.V(0, 0), 2: geom.V(10, 0), 3: geom.V(5000, 0)}
	m := newTestMedium(pos)
	ids := []wire.RobotID{1, 2, 3}

	m.Send(1, wire.Frame{Src: 1, Dst: wire.Broadcast, Payload: []byte("hello")})
	got := m.Deliver(ids)
	if len(got) != 1 || got[0].To != 2 {
		t.Fatalf("delivery = %+v; robot 2 in range, robot 3 out, no self-delivery", got)
	}
	// Queue drained.
	if again := m.Deliver(ids); len(again) != 0 {
		t.Error("frames delivered twice")
	}
}

func TestUnicastOnlyAddressee(t *testing.T) {
	pos := posMap{1: geom.V(0, 0), 2: geom.V(10, 0), 3: geom.V(20, 0)}
	m := newTestMedium(pos)
	m.Send(1, wire.Frame{Src: 1, Dst: 3, Payload: []byte("x")})
	got := m.Deliver([]wire.RobotID{1, 2, 3})
	if len(got) != 1 || got[0].To != 3 {
		t.Fatalf("unicast delivery = %+v", got)
	}
}

func TestDeliveryDeterministicOrder(t *testing.T) {
	pos := posMap{1: geom.V(0, 0), 2: geom.V(5, 0), 3: geom.V(10, 0)}
	run := func() []Delivery {
		m := newTestMedium(pos)
		m.Send(3, wire.Frame{Src: 3, Dst: wire.Broadcast, Payload: []byte("a")})
		m.Send(1, wire.Frame{Src: 1, Dst: wire.Broadcast, Payload: []byte("b")})
		return m.Deliver([]wire.RobotID{3, 1, 2}) // shuffled id list
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 4 {
		t.Fatalf("deliveries: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].To != b[i].To || string(a[i].Frame.Payload) != string(b[i].Frame.Payload) {
			t.Fatalf("nondeterministic delivery order: %+v vs %+v", a, b)
		}
	}
	// Send order is preserved (frame from 3 was queued first).
	if string(a[0].Frame.Payload) != "a" {
		t.Errorf("queue order not preserved: %+v", a)
	}
}

func TestDeliverReceiverMajorOrder(t *testing.T) {
	// The engine documents delivery "(by receiver ID, then queue
	// order)". Interleave broadcasts and unicasts from several
	// transmitters and assert the returned slice is receiver-major
	// with transmit order preserved within each receiver — the
	// historical bug returned frame-major order instead.
	pos := posMap{1: geom.V(0, 0), 2: geom.V(5, 0), 3: geom.V(10, 0), 4: geom.V(15, 0)}
	m := newTestMedium(pos)
	send := func(from, to wire.RobotID, payload string) {
		m.Send(from, wire.Frame{Src: from, Dst: to, Payload: []byte(payload)})
	}
	send(3, wire.Broadcast, "b3") // seq 0 → receivers 1, 2, 4
	send(1, 4, "u14")             // seq 1 → receiver 4
	send(2, wire.Broadcast, "b2") // seq 2 → receivers 1, 3, 4
	send(4, 1, "u41")             // seq 3 → receiver 1

	got := m.Deliver([]wire.RobotID{4, 2, 1, 3}) // shuffled roster
	want := []struct {
		to      wire.RobotID
		payload string
	}{
		{1, "b3"}, {1, "b2"}, {1, "u41"},
		{2, "b3"},
		{3, "b2"},
		{4, "b3"}, {4, "u14"}, {4, "b2"},
	}
	if len(got) != len(want) {
		t.Fatalf("%d deliveries, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i].To != w.to || string(got[i].Frame.Payload) != w.payload {
			t.Errorf("delivery[%d] = to %d %q, want to %d %q",
				i, got[i].To, got[i].Frame.Payload, w.to, w.payload)
		}
	}
}

func TestSpoofedSrcStillDeliveredFromRealPosition(t *testing.T) {
	// A compromised robot claims to be robot 9; deliverability is
	// governed by the *transmitter's* physical position.
	pos := posMap{1: geom.V(0, 0), 2: geom.V(10, 0)}
	m := newTestMedium(pos)
	m.Send(1, wire.Frame{Src: 9, Dst: wire.Broadcast, Payload: []byte("spoof")})
	got := m.Deliver([]wire.RobotID{1, 2})
	if len(got) != 1 || got[0].Frame.Src != 9 {
		t.Fatalf("spoofed frame handling: %+v", got)
	}
}

func TestByteAccounting(t *testing.T) {
	pos := posMap{1: geom.V(0, 0), 2: geom.V(10, 0)}
	m := newTestMedium(pos)
	app := wire.Frame{Src: 1, Dst: wire.Broadcast, Payload: make([]byte, 27)}
	audit := wire.Frame{Src: 1, Dst: 2, Flags: wire.FlagAudit, Payload: make([]byte, 500)}
	m.Send(1, app)
	m.Send(1, audit)
	m.Deliver([]wire.RobotID{1, 2})

	tx := m.Counters(1)
	rx := m.Counters(2)
	appSize := uint64(len(app.Encode()))
	auditSize := uint64(len(audit.Encode()))
	if tx.TxApp != appSize || tx.TxAudit != auditSize {
		t.Errorf("tx counters: %+v", tx)
	}
	if rx.RxApp != appSize || rx.RxAudit != auditSize {
		t.Errorf("rx counters: %+v", rx)
	}
	if rx.RxFrames != 2 || tx.TxFrames != 2 {
		t.Errorf("frame counters: tx=%+v rx=%+v", tx, rx)
	}
	if got := tx.Total(); got != appSize+auditSize {
		t.Errorf("Total = %d", got)
	}
}

func TestLossModel(t *testing.T) {
	pos := posMap{1: geom.V(0, 0), 2: geom.V(10, 0)}
	p := DefaultParams()
	p.LossRate = 0.5
	m := NewMedium(p, pos.fn, 42)
	delivered := 0
	const n = 1000
	for i := 0; i < n; i++ {
		m.Send(1, wire.Frame{Src: 1, Dst: wire.Broadcast, Payload: []byte("x")})
		delivered += len(m.Deliver([]wire.RobotID{1, 2}))
	}
	if delivered < 400 || delivered > 600 {
		t.Errorf("delivered %d/%d with 50%% loss", delivered, n)
	}
	if m.Counters(2).Dropped != uint64(n-delivered) {
		t.Errorf("dropped counter %d, want %d", m.Counters(2).Dropped, n-delivered)
	}
	// Loss is deterministic per seed.
	m2 := NewMedium(p, pos.fn, 42)
	delivered2 := 0
	for i := 0; i < n; i++ {
		m2.Send(1, wire.Frame{Src: 1, Dst: wire.Broadcast, Payload: []byte("x")})
		delivered2 += len(m2.Deliver([]wire.RobotID{1, 2}))
	}
	if delivered != delivered2 {
		t.Error("loss model not deterministic for fixed seed")
	}
}

func TestInRangeAndNeighbors(t *testing.T) {
	pos := posMap{1: geom.V(0, 0), 2: geom.V(100, 0), 3: geom.V(250, 0)}
	m := newTestMedium(pos)
	if !m.InRange(1, 2) {
		t.Error("1↔2 at 100m should be in ≈199m range")
	}
	if m.InRange(1, 3) {
		t.Error("1↔3 at 400m should be out of range")
	}
	nbrs := m.NeighborsOf(2, []wire.RobotID{1, 2, 3})
	if len(nbrs) != 2 || nbrs[0] != 1 || nbrs[1] != 3 {
		t.Errorf("neighbors of 2: %v", nbrs)
	}
}

func TestMissingPositionSkipsDelivery(t *testing.T) {
	pos := posMap{1: geom.V(0, 0)}
	m := newTestMedium(pos)
	m.Send(1, wire.Frame{Src: 1, Dst: wire.Broadcast})
	if got := m.Deliver([]wire.RobotID{1, 99}); len(got) != 0 {
		t.Errorf("delivered to robot with no position: %+v", got)
	}
	m.Send(99, wire.Frame{Src: 99, Dst: wire.Broadcast})
	if got := m.Deliver([]wire.RobotID{1, 99}); len(got) != 0 {
		t.Errorf("delivered from robot with no position: %+v", got)
	}
}

// TestCountersRegisterOnce pins what metrics cost a robot's radio: its
// counters struct and one registration (slice and map growth amortise
// to nothing). Robots with counters before SetObs register there; the
// registry reads the counters at snapshot, so a later write shows.
func TestCountersRegisterOnce(t *testing.T) {
	m := newTestMedium(posMap{})
	for id := wire.RobotID(1); id <= 3; id++ {
		m.Counters(id)
	}
	reg := obs.NewRegistry()
	m.SetObs(nil, reg)
	const robots = 1000
	next := wire.RobotID(4)
	if got := testing.AllocsPerRun(robots, func() { m.Counters(next); next++ }); got > 2 {
		t.Errorf("a robot's counters with metrics attached cost %v allocations, want at most 2", got)
	}
	m.Counters(2).TxApp = 5
	snap := reg.Snapshot()
	if want := int(next-1) * 7; len(snap) != want {
		t.Fatalf("snapshot holds %d samples, want %d (7 per robot)", len(snap), want)
	}
	i := slices.IndexFunc(snap, func(s obs.Sample) bool { return s.Name == "radio.robot.2.tx_app_bytes" })
	if i < 0 || snap[i].Value != 5 {
		t.Errorf("radio.robot.2.tx_app_bytes missing or stale in %v", snap[:min(len(snap), 10)])
	}
	if got := testing.AllocsPerRun(10, func() { m.SetObs(nil, nil) }); got > 1 {
		t.Errorf("SetObs makes %v allocations, want at most 1 (its ID list)", got)
	}
}
