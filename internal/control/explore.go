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

// Exploration (§2.1's third application class): the robots "split up
// the region to cover it more quickly as a group [and] coordinate
// infrequently to ensure that their subregions do not overlap, and
// that no area is missed."
//
// The survey area is divided into vertical strips, one per robot, each
// swept boustrophedon-style. Robots overhear each other's periodic
// state broadcasts; when a strip's owner has been silent past
// PeerTimeout (for instance, because RoboRebound audited it into Safe
// Mode), the first robot to finish its own strip deterministically
// adopts the lowest-numbered orphaned strip — so the mission completes
// even with f_max robots disabled.
//
// Everything here is a pure function of the logged inputs, so the
// takeover logic itself is audited: a robot that "adopts" a strip it
// has no right to is detected by replay like any other deviation.

// ExploreParams configures the survey.
type ExploreParams struct {
	// Area is the axis-aligned survey rectangle (X0,Y0)–(X1,Y1).
	X0, Y0, X1, Y1 float64
	// Strips is the number of vertical strips (≤ 64).
	Strips int
	// Lanes is the number of lawnmower lanes per strip.
	Lanes int
	// ArriveRadius, KP, KD, AccelCap: PD waypoint steering.
	ArriveRadius float64
	KP, KD       float64
	AccelCap     float64
	// BroadcastPeriod is the state-broadcast interval in ticks.
	BroadcastPeriod wire.Tick
	// PeerTimeout is how long an owner may be silent before its strip
	// counts as orphaned, in ticks. It must comfortably exceed the
	// broadcast period and the defense's T_val (a robot being audited
	// out goes silent for good; a healthy robot never goes quiet that
	// long).
	PeerTimeout wire.Tick
}

// DefaultExploreParams surveys the given rectangle with one strip per
// expected robot.
func DefaultExploreParams(ticksPerSecond float64, x0, y0, x1, y1 float64, strips int) ExploreParams {
	return ExploreParams{
		X0: x0, Y0: y0, X1: x1, Y1: y1,
		Strips:          strips,
		Lanes:           4,
		ArriveRadius:    2,
		KP:              0.08,
		KD:              0.6,
		AccelCap:        5,
		BroadcastPeriod: wire.Tick(1.5 * ticksPerSecond),
		PeerTimeout:     wire.Tick(15 * ticksPerSecond),
	}
}

type explorePeer struct {
	ID        wire.RobotID
	LastHeard wire.Tick
}

// Explore is the per-robot exploration state machine.
type Explore struct {
	id     wire.RobotID
	params ExploreParams

	time wire.Tick
	pos  geom.Vec2
	vel  geom.Vec2

	covering uint16 // strip currently being swept
	lane     uint16 // waypoint index within the strip route
	idle     bool   // no strip left to sweep
	covered  uint64 // bitmask of strips this robot has finished
	peers    []explorePeer

	bcast [wire.StateMsgSize]byte // Outputs.Broadcast, lent until the next call
}

var _ Controller = (*Explore)(nil)

// NewExplore returns the controller in its initial state: robot id
// starts on strip (id−1) mod Strips.
func NewExplore(id wire.RobotID, p ExploreParams) *Explore {
	e := new(Explore)
	e.reset(id, p)
	return e
}

// reset puts e in robot id's initial state, keeping only the storage of
// its peer table.
func (e *Explore) reset(id wire.RobotID, p ExploreParams) {
	if p.Strips < 1 {
		p.Strips = 1
	}
	if p.Strips > 64 {
		p.Strips = 64
	}
	if p.Lanes < 1 {
		p.Lanes = 1
	}
	*e = Explore{id: id, params: p, covering: ownStrip(id, p.Strips), peers: e.peers[:0]}
}

func ownStrip(id wire.RobotID, strips int) uint16 {
	if id == 0 {
		return 0
	}
	return uint16((int(id) - 1) % strips)
}

// Covering returns the strip currently being swept and whether the
// robot has run out of work.
func (e *Explore) Covering() (strip int, idle bool) { return int(e.covering), e.idle }

// CoveredMask returns the strips this robot has completed.
func (e *Explore) CoveredMask() uint64 { return e.covered }

// waypoint returns lawnmower waypoint i of the given strip.
func (e *Explore) waypoint(strip uint16, i uint16) geom.Vec2 {
	p := &e.params
	stripW := (p.X1 - p.X0) / float64(p.Strips)
	laneH := (p.Y1 - p.Y0) / float64(p.Lanes)
	xLeft := p.X0 + float64(strip)*stripW + stripW*0.25
	xRight := p.X0 + float64(strip)*stripW + stripW*0.75
	lane := int(i) / 2
	y := p.Y0 + laneH*(float64(lane)+0.5)
	// Boustrophedon: lanes alternate left→right and right→left.
	onRight := (int(i)%2 == 1) != (lane%2 == 1)
	if onRight {
		return geom.V(xRight, y)
	}
	return geom.V(xLeft, y)
}

func (e *Explore) waypointsPerStrip() uint16 { return uint16(e.params.Lanes * 2) }

// OnMessage records peer liveness from any parseable state broadcast.
func (e *Explore) OnMessage(payload []byte) {
	m, err := wire.DecodeStateMsg(payload)
	if err != nil || m.Src == e.id {
		return
	}
	i := sort.Search(len(e.peers), func(i int) bool { return e.peers[i].ID >= m.Src })
	if i < len(e.peers) && e.peers[i].ID == m.Src {
		e.peers[i].LastHeard = e.time
		return
	}
	e.peers = append(e.peers, explorePeer{})
	copy(e.peers[i+1:], e.peers[i:])
	e.peers[i] = explorePeer{ID: m.Src, LastHeard: e.time}
}

// liveRank returns this robot's rank among currently-live robots (its
// position in the ascending list of live IDs, itself included) and the
// live count. Liveness of a peer means heard within PeerTimeout.
func (e *Explore) liveRank() (rank, count int) {
	for _, p := range e.peers {
		if p.LastHeard+e.params.PeerTimeout <= e.time {
			continue
		}
		count++
		if p.ID < e.id {
			rank++
		}
	}
	count++ // self
	return rank, count
}

// orphanedStrip returns the lowest orphaned strip *assigned to this
// robot* by the deterministic takeover rule: orphaned strips are dealt
// to live robots round-robin by rank (strip s goes to the live robot
// of rank s mod liveCount). Without the rank rule, every idle robot
// would adopt the same strip simultaneously and converge on identical
// waypoints — a guaranteed collision. The rule depends only on logged
// inputs, so replay audits it like everything else; transiently
// divergent peer views can cause brief double-coverage, which is
// wasteful but safe (the strips are re-swept, not contested).
func (e *Explore) orphanedStrip() (uint16, bool) {
	rank, count := e.liveRank()
	dealt := 0
	for s := 0; s < e.params.Strips; s++ {
		if e.covered&(1<<uint(s)) != 0 {
			continue
		}
		if uint16(s) == ownStrip(e.id, e.params.Strips) {
			continue // own strip handled by the normal sweep
		}
		ownerAlive := false
		for _, p := range e.peers {
			if ownStrip(p.ID, e.params.Strips) != uint16(s) {
				continue
			}
			if p.LastHeard+e.params.PeerTimeout > e.time {
				ownerAlive = true
				break
			}
		}
		if ownerAlive {
			continue
		}
		if dealt%count == rank {
			return uint16(s), true
		}
		dealt++
	}
	return 0, false
}

// OnSensor advances the sweep.
func (e *Explore) OnSensor(r wire.SensorReading) Outputs {
	e.time = r.Time
	e.pos = geom.V(r.PosX, r.PosY)
	e.vel = geom.V(float64(r.VelX), float64(r.VelY))

	if e.idle {
		// Re-check for newly orphaned strips.
		if s, ok := e.orphanedStrip(); ok {
			e.covering, e.lane, e.idle = s, 0, false
		}
	}

	var u geom.Vec2
	if !e.idle {
		target := e.waypoint(e.covering, e.lane)
		if e.pos.Dist(target) <= e.params.ArriveRadius {
			e.lane++
			if e.lane >= e.waypointsPerStrip() {
				e.covered |= 1 << uint(e.covering)
				if s, ok := e.orphanedStrip(); ok {
					e.covering, e.lane = s, 0
				} else {
					e.idle = true
				}
			}
			if !e.idle {
				target = e.waypoint(e.covering, e.lane)
			}
		}
		if !e.idle {
			u = target.Sub(e.pos).Scale(e.params.KP).
				Add(e.vel.Neg().Scale(e.params.KD)).
				ClampAxes(e.params.AccelCap)
		}
	}
	if e.idle {
		// Brake to a stop while idle.
		u = e.vel.Neg().Scale(e.params.KD).ClampAxes(e.params.AccelCap)
	}

	out := Outputs{Cmd: wire.ActuatorCmd{Time: r.Time, AccX: u.X, AccY: u.Y}, HasCmd: true}
	if per := e.params.BroadcastPeriod; per > 0 && r.Time%per == wire.Tick(e.id)%per {
		m := wire.StateMsg{Src: e.id, Time: r.Time,
			PosX: float32(e.pos.X), PosY: float32(e.pos.Y),
			VelX: float32(e.vel.X), VelY: float32(e.vel.Y)}
		out.Broadcast = m.AppendEncode(e.bcast[:0])
	}
	return out
}

// AppendState appends the canonical exploration state.
func (e *Explore) AppendState(dst []byte) []byte {
	dst = slices.Grow(dst, 8+16+8+2+2+1+8+2+len(e.peers)*10)
	dst = binary.BigEndian.AppendUint64(dst, uint64(e.time))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(e.pos.X))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(e.pos.Y))
	dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(float32(e.vel.X)))
	dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(float32(e.vel.Y)))
	dst = binary.BigEndian.AppendUint16(dst, e.covering)
	dst = binary.BigEndian.AppendUint16(dst, e.lane)
	if e.idle {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.BigEndian.AppendUint64(dst, e.covered)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(e.peers)))
	for _, p := range e.peers {
		dst = binary.BigEndian.AppendUint16(dst, uint16(p.ID))
		dst = binary.BigEndian.AppendUint64(dst, uint64(p.LastHeard))
	}
	return dst
}

func (e *Explore) restoreState(state []byte) error {
	r := wire.NewReader(state)
	e.time = wire.Tick(r.U64())
	e.pos = geom.V(r.F64(), r.F64())
	e.vel = geom.V(float64(r.F32()), float64(r.F32()))
	e.covering = r.U16()
	e.lane = r.U16()
	e.idle = r.U8() == 1
	e.covered = r.U64()
	n := int(r.U16())
	if n > r.Remaining()/10 { // 10 bytes per encoded peer (U16 ID + U64 tick)
		return fmt.Errorf("explore: peer count %d exceeds payload", n)
	}
	e.peers = slices.Grow(e.peers[:0], n)
	prev := -1
	for i := 0; i < n; i++ {
		p := explorePeer{ID: wire.RobotID(r.U16()), LastHeard: wire.Tick(r.U64())}
		if int(p.ID) <= prev {
			return fmt.Errorf("explore: non-canonical peer order in state")
		}
		prev = int(p.ID)
		e.peers = append(e.peers, p)
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("explore state: %w", err)
	}
	if int(e.covering) >= e.params.Strips {
		return fmt.Errorf("explore state: strip %d out of range", e.covering)
	}
	return nil
}

// ExploreFactory builds exploration controllers for one survey.
type ExploreFactory struct {
	Params ExploreParams
}

var _ Factory = ExploreFactory{}

// New implements Factory.
func (f ExploreFactory) New(id wire.RobotID) Controller {
	return NewExplore(id, f.Params)
}

// Load implements Factory.
func (f ExploreFactory) Load(c Controller, id wire.RobotID, state []byte) (Controller, error) {
	e, ok := c.(*Explore)
	if !ok {
		e = new(Explore)
	}
	e.reset(id, f.Params)
	if state == nil {
		return e, nil
	}
	if err := e.restoreState(state); err != nil {
		return nil, err
	}
	return e, nil
}
