package control

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"roborebound/internal/geom"
	"roborebound/internal/wire"
)

// Warehouse logistics (§2.1, §2.3 — the paper's headline commercial
// use case, à la Ocado/Kiva): each robot shuttles between a pickup and
// a dropoff station, yielding to higher-priority traffic it hears
// about over state broadcasts. Compromised robots in this class can
// "delay getting objects to destinations, block other robots' paths,
// or put objects in incorrect places" (§2.3) — and a robot that stops
// yielding, or lies about its position to make others yield, is
// exactly the kind of deviation deterministic replay catches.
//
// Traffic design: each shuttle drives a one-way rectangular loop —
// outbound on its station lane, back on a parallel return lane
// LaneOffset meters over — so opposing flows never share a line
// (head-on conflicts at 2× cruise speed cannot be brake-resolved with
// seconds-stale broadcast data; one-way aisles are how real warehouses
// solve this too). Within a lane, the yield rule is priority-by-ID:
// when a lower-ID robot is within YieldRadius, roughly ahead, and not
// receding, we brake and wait. Lower ID always proceeds, so two
// waiting robots can never block each other. Everything derives from
// logged inputs (own pose + overheard states), keeping the controller
// replayable.

// WarehouseParams configures the shuttle mission.
type WarehouseParams struct {
	// Pickups and Dropoffs are station locations; robot id uses
	// Pickups[(id−1) mod len] and Dropoffs[(id−1) mod len].
	Pickups, Dropoffs []geom.Vec2
	// ArriveRadius is how close counts as docked (meters).
	ArriveRadius float64
	// YieldRadius is the give-way zone around higher-priority robots.
	// It must exceed the worst-case stopping distance (v²/2a plus the
	// staleness drift of a broadcast position) or shuttles coast
	// straight past the conflict they are meant to avoid.
	YieldRadius float64
	// LaneWidth is the lateral half-width of the conflict corridor: a
	// higher-priority robot only forces a yield when it sits within
	// LaneWidth of our heading line. Without it, parallel traffic on
	// adjacent lanes triggers spurious stops.
	LaneWidth float64
	// StaleAfter drops neighbor entries older than this many ticks (a
	// vanished robot must not block an aisle forever).
	StaleAfter wire.Tick
	// LaneOffset displaces the return lane from the outbound lane.
	LaneOffset float64
	// KP, KD, AccelCap: PD steering.
	KP, KD   float64
	AccelCap float64
	// BroadcastPeriod is the state-broadcast interval in ticks.
	BroadcastPeriod wire.Tick
}

// DefaultWarehouseParams returns a workable configuration for the
// given station lists.
func DefaultWarehouseParams(ticksPerSecond float64, pickups, dropoffs []geom.Vec2) WarehouseParams {
	return WarehouseParams{
		Pickups:         pickups,
		Dropoffs:        dropoffs,
		ArriveRadius:    1.5,
		YieldRadius:     15,
		LaneWidth:       2,
		LaneOffset:      4,
		StaleAfter:      wire.Tick(6 * ticksPerSecond),
		KP:              0.1,
		KD:              0.7,
		AccelCap:        5,
		BroadcastPeriod: wire.Tick(1.5 * ticksPerSecond),
	}
}

type warehousePeer struct {
	ID         wire.RobotID
	LastHeard  wire.Tick
	PosX, PosY float32
	VelX, VelY float32
}

// Warehouse is the shuttle controller.
type Warehouse struct {
	id     wire.RobotID
	params WarehouseParams

	time wire.Tick
	pos  geom.Vec2
	vel  geom.Vec2

	wp    uint8  // waypoint index on the one-way loop (see route)
	trips uint32 // completed pickup→dropoff cycles
	peers []warehousePeer

	bcast [wire.StateMsgSize]byte // Outputs.Broadcast, lent until the next call
}

var _ Controller = (*Warehouse)(nil)

// NewWarehouse returns the controller in its initial state (heading to
// its pickup station).
func NewWarehouse(id wire.RobotID, p WarehouseParams) *Warehouse {
	w := new(Warehouse)
	w.reset(id, p)
	return w
}

// reset puts w in robot id's initial state, keeping only the storage of
// its peer table.
func (w *Warehouse) reset(id wire.RobotID, p WarehouseParams) {
	*w = Warehouse{id: id, params: p, peers: w.peers[:0]}
}

// Trips returns the number of completed delivery cycles.
func (w *Warehouse) Trips() int { return int(w.trips) }

// route returns the shuttle's one-way loop: pickup → dropoff →
// return-lane entry → return-lane exit → (pickup). Index 0 is the
// pickup dock, index 1 the dropoff dock.
func (w *Warehouse) route() [4]geom.Vec2 {
	idx := 0
	if w.id > 0 && len(w.params.Pickups) > 0 {
		idx = int(w.id-1) % len(w.params.Pickups)
	}
	var pickup, dropoff geom.Vec2
	if len(w.params.Pickups) > 0 {
		pickup = w.params.Pickups[idx%len(w.params.Pickups)]
	}
	if len(w.params.Dropoffs) > 0 {
		dropoff = w.params.Dropoffs[idx%len(w.params.Dropoffs)]
	}
	off := geom.V(0, w.params.LaneOffset)
	return [4]geom.Vec2{pickup, dropoff, dropoff.Add(off), pickup.Add(off)}
}

// Target returns the current waypoint on the loop.
func (w *Warehouse) Target() geom.Vec2 {
	return w.route()[int(w.wp)%4]
}

// Yielding reports whether the robot is currently giving way (metrics
// and tests only).
func (w *Warehouse) Yielding() bool { return w.yielding() }

func (w *Warehouse) yielding() bool {
	heading := w.Target().Sub(w.pos)
	if heading.NormSq() == 0 {
		return false
	}
	dir := heading.Unit()
	for _, p := range w.peers {
		if p.ID >= w.id { // only lower IDs have priority over us
			continue
		}
		if p.LastHeard+w.params.StaleAfter <= w.time {
			continue
		}
		to := geom.V(float64(p.PosX), float64(p.PosY)).Sub(w.pos)
		if to.Norm() > w.params.YieldRadius {
			continue
		}
		along := to.Dot(dir)
		if along <= 0 {
			continue // behind us
		}
		// Lateral offset from our heading line: parallel traffic on a
		// neighboring lane is not a conflict.
		if lat := to.Sub(dir.Scale(along)).Norm(); lat > w.params.LaneWidth {
			continue
		}
		// Traffic already receding along our heading is not a
		// conflict; without this, shuttles brake for every colleague
		// driving away and corridor throughput collapses. A parked
		// blocker (velocity ≈ 0) still forces the yield.
		vel := geom.V(float64(p.VelX), float64(p.VelY))
		if vel.Dot(dir) > 0.5 {
			continue
		}
		return true
	}
	return false
}

// OnMessage ingests a peer state broadcast.
func (w *Warehouse) OnMessage(payload []byte) {
	m, err := wire.DecodeStateMsg(payload)
	if err != nil || m.Src == w.id {
		return
	}
	entry := warehousePeer{ID: m.Src, LastHeard: w.time,
		PosX: m.PosX, PosY: m.PosY, VelX: m.VelX, VelY: m.VelY}
	i := sort.Search(len(w.peers), func(i int) bool { return w.peers[i].ID >= m.Src })
	if i < len(w.peers) && w.peers[i].ID == m.Src {
		w.peers[i] = entry
		return
	}
	w.peers = append(w.peers, warehousePeer{})
	copy(w.peers[i+1:], w.peers[i:])
	w.peers[i] = entry
}

// OnSensor advances the shuttle loop.
func (w *Warehouse) OnSensor(r wire.SensorReading) Outputs {
	w.time = r.Time
	w.pos = geom.V(r.PosX, r.PosY)
	w.vel = geom.V(float64(r.VelX), float64(r.VelY))

	target := w.Target()
	if w.pos.Dist(target) <= w.params.ArriveRadius {
		if w.wp == 1 {
			w.trips++ // docked at the dropoff: delivery complete
		}
		w.wp = (w.wp + 1) % 4
		target = w.Target()
	}

	var u geom.Vec2
	if w.yielding() {
		// Give way: brake hard, hold position.
		u = w.vel.Neg().Scale(w.params.KD * 2).ClampAxes(w.params.AccelCap)
	} else {
		u = target.Sub(w.pos).Scale(w.params.KP).
			Add(w.vel.Neg().Scale(w.params.KD)).
			ClampAxes(w.params.AccelCap)
	}

	out := Outputs{Cmd: wire.ActuatorCmd{Time: r.Time, AccX: u.X, AccY: u.Y}, HasCmd: true}
	if per := w.params.BroadcastPeriod; per > 0 && r.Time%per == wire.Tick(w.id)%per {
		m := wire.StateMsg{Src: w.id, Time: r.Time,
			PosX: float32(w.pos.X), PosY: float32(w.pos.Y),
			VelX: float32(w.vel.X), VelY: float32(w.vel.Y)}
		out.Broadcast = m.AppendEncode(w.bcast[:0])
	}
	return out
}

// AppendState appends the canonical warehouse state.
func (w *Warehouse) AppendState(dst []byte) []byte {
	dst = slices.Grow(dst, 8+16+8+1+4+2+len(w.peers)*26)
	dst = binary.BigEndian.AppendUint64(dst, uint64(w.time))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(w.pos.X))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(w.pos.Y))
	dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(float32(w.vel.X)))
	dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(float32(w.vel.Y)))
	dst = append(dst, w.wp)
	dst = binary.BigEndian.AppendUint32(dst, w.trips)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(w.peers)))
	for _, p := range w.peers {
		dst = binary.BigEndian.AppendUint16(dst, uint16(p.ID))
		dst = binary.BigEndian.AppendUint64(dst, uint64(p.LastHeard))
		dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(p.PosX))
		dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(p.PosY))
		dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(p.VelX))
		dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(p.VelY))
	}
	return dst
}

func (w *Warehouse) restoreState(state []byte) error {
	r := wire.NewReader(state)
	w.time = wire.Tick(r.U64())
	w.pos = geom.V(r.F64(), r.F64())
	w.vel = geom.V(float64(r.F32()), float64(r.F32()))
	w.wp = r.U8()
	w.trips = r.U32()
	if w.wp > 3 {
		return fmt.Errorf("warehouse state: waypoint %d out of range", w.wp)
	}
	n := int(r.U16())
	if n > r.Remaining()/26 { // 26 bytes per encoded peer (U16 + U64 + 4×F32)
		return fmt.Errorf("warehouse: peer count %d exceeds payload", n)
	}
	w.peers = slices.Grow(w.peers[:0], n)
	prev := -1
	for i := 0; i < n; i++ {
		p := warehousePeer{ID: wire.RobotID(r.U16()), LastHeard: wire.Tick(r.U64()),
			PosX: r.F32(), PosY: r.F32(), VelX: r.F32(), VelY: r.F32()}
		if int(p.ID) <= prev {
			return fmt.Errorf("warehouse: non-canonical peer order in state")
		}
		prev = int(p.ID)
		w.peers = append(w.peers, p)
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("warehouse state: %w", err)
	}
	return nil
}

// WarehouseFactory builds warehouse controllers for one station map.
type WarehouseFactory struct {
	Params WarehouseParams
}

var _ Factory = WarehouseFactory{}

// New implements Factory.
func (f WarehouseFactory) New(id wire.RobotID) Controller {
	return NewWarehouse(id, f.Params)
}

// Load implements Factory.
func (f WarehouseFactory) Load(c Controller, id wire.RobotID, state []byte) (Controller, error) {
	w, ok := c.(*Warehouse)
	if !ok {
		w = new(Warehouse)
	}
	w.reset(id, f.Params)
	if state == nil {
		return w, nil
	}
	if err := w.restoreState(state); err != nil {
		return nil, err
	}
	return w, nil
}
