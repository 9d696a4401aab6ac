package control

import (
	"encoding/binary"
	"fmt"
	"slices"

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
	// Steering's ArriveRadius is how close counts as docked.
	Steering
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
	// StaleAfter is how many ticks a peer's entry forces a yield after
	// it was heard: an older entry stays in the table, but the yield
	// rule ignores it (a vanished robot must not block an aisle
	// forever).
	StaleAfter wire.Tick
	// LaneOffset displaces the return lane from the outbound lane.
	LaneOffset float64
}

// DefaultWarehouseParams returns a workable configuration for the
// given station lists.
func DefaultWarehouseParams(pickups, dropoffs []geom.Vec2) WarehouseParams {
	return WarehouseParams{
		Pickups:  pickups,
		Dropoffs: dropoffs,
		Steering: Steering{ArriveRadius: 1.5, KP: 0.1, KD: 0.7, AccelCap: 5,
			BroadcastPeriod: 1.5 * wire.TicksPerSecond},
		YieldRadius: 15,
		LaneWidth:   2,
		LaneOffset:  4,
		StaleAfter:  6 * wire.TicksPerSecond,
	}
}

// Warehouse is the shuttle controller.
type Warehouse struct {
	Self
	params WarehouseParams
	wp     uint8  // waypoint index on the one-way loop (see route)
	trips  uint32 // completed pickup→dropoff cycles
	peers  Peers
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
	*w = Warehouse{Self: Self{ID: id}, params: p, peers: w.peers[:0]}
}

// Trips returns the number of completed delivery cycles.
func (w *Warehouse) Trips() int { return int(w.trips) }

// route returns the shuttle's one-way loop: pickup → dropoff →
// return-lane entry → return-lane exit → (pickup). Index 0 is the
// pickup dock, index 1 the dropoff dock.
func (w *Warehouse) route() [4]geom.Vec2 {
	idx := 0
	if w.ID > 0 && len(w.params.Pickups) > 0 {
		idx = int(w.ID-1) % len(w.params.Pickups)
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
	heading := w.Target().Sub(w.Pos)
	if heading.NormSq() == 0 {
		return false
	}
	dir := heading.Unit()
	for _, p := range w.peers {
		if p.ID >= w.ID { // only lower IDs have priority over us
			continue
		}
		if p.LastHeard+w.params.StaleAfter <= w.Time {
			continue
		}
		to := geom.V(float64(p.PosX), float64(p.PosY)).Sub(w.Pos)
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
func (w *Warehouse) OnMessage(payload []byte) { w.peers.Hear(payload, w.ID, w.Time) }

// OnSensor advances the shuttle loop.
func (w *Warehouse) OnSensor(r wire.SensorReading) Outputs {
	w.Sense(r)
	target := w.Target()
	if w.Pos.Dist(target) <= w.params.ArriveRadius {
		if w.wp == 1 {
			w.trips++ // docked at the dropoff: delivery complete
		}
		w.wp = (w.wp + 1) % 4
		target = w.Target()
	}

	var u geom.Vec2
	if w.yielding() {
		// Give way: brake hard, hold position.
		u = w.Vel.Neg().Scale(w.params.KD * 2).ClampAxes(w.params.AccelCap)
	} else {
		u = w.Steer(target, w.params.Steering)
	}
	return w.Act(u, w.params.BroadcastPeriod)
}

// AppendState appends the canonical warehouse state.
func (w *Warehouse) AppendState(dst []byte) []byte {
	dst = slices.Grow(dst, SelfSize+1+4+2+len(w.peers)*PeerSize)
	dst = append(w.AppendSelf(dst), w.wp)
	dst = binary.BigEndian.AppendUint32(dst, w.trips)
	return w.peers.AppendPeers(dst)
}

func (w *Warehouse) restoreState(state []byte) error {
	r := wire.NewReader(state)
	w.ReadSelf(r)
	w.wp = r.U8()
	w.trips = r.U32()
	if w.wp > 3 {
		return fmt.Errorf("warehouse state: waypoint %d out of range", w.wp)
	}
	if err := w.peers.ReadPeers(r); err != nil {
		return fmt.Errorf("warehouse state: %w", err)
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
