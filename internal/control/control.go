// Package control defines the deterministic-controller abstraction at
// the heart of RoboRebound's auditability. A controller is a state
// machine whose only inputs are sensor readings and received message
// payloads and whose only outputs are actuator commands and broadcast
// payloads; given the same checkpoint and the same input sequence it
// must reproduce the same outputs bit-for-bit, which is what lets an
// auditor verify a robot by deterministic replay (§3.7, §3.9).
//
// An auditor replays segment after segment, for one auditee after
// another, so nothing a replay step produces is allocated per call:
//
//   - Outputs.Broadcast is lent. A controller encodes it into a buffer
//     it owns, valid until its next OnSensor, OnMessage or Load; a
//     caller that sends the payload copies it into the frame it sends.
//   - AppendState appends the state encoding to a buffer the caller
//     owns; a caller that keeps the bytes passes nil.
//   - Factory.Load puts a controller it built before — for any robot,
//     in any state — into a given state or the initial one, reusing its
//     storage. The auditor's replica (replay.Machine) is one controller
//     loaded afresh for every replay.
package control

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"roborebound/internal/geom"
	"roborebound/internal/wire"
)

// Outputs is what a controller emits in response to one input event.
// Emission happens synchronously: the c-node logs and forwards these
// before processing the next input, and the replay engine checks them
// in exactly that position.
type Outputs struct {
	// Broadcast, if non-nil, is an application payload to broadcast
	// over the radio (e.g. an encoded StateMsg). It is lent: the bytes
	// are the controller's scratch, valid until its next call, so a
	// caller that sends them copies them first.
	Broadcast []byte
	// Cmd is the acceleration command for the actuators, meaningful
	// only when HasCmd is set. It travels by value: a control step (and
	// every replayed one) costs no heap object, and there is no
	// controller-owned buffer whose lifetime a consumer could get wrong.
	Cmd    wire.ActuatorCmd
	HasCmd bool
}

// Controller is a deterministic robot control algorithm.
//
// Implementations must be pure state machines: no wall-clock reads, no
// randomness, no map-iteration-order dependence, no goroutines. Time
// is only what sensor readings carry. Violating this breaks replay —
// which, under RoboRebound, means the robot gets audited into Safe
// Mode even though it is not compromised.
type Controller interface {
	// OnSensor processes one sensor poll (the periodic input that
	// drives the control loop) and returns any outputs.
	OnSensor(r wire.SensorReading) Outputs
	// OnMessage processes a received application message payload.
	// Flocking-style protocols produce no immediate outputs here; the
	// interface permits none to keep replay positions unambiguous.
	OnMessage(payload []byte)
	// AppendState appends a canonical serialization of the complete
	// controller state, suitable for checkpointing, to dst and returns
	// the extended slice. Two controllers with equal state must append
	// identical bytes.
	AppendState(dst []byte) []byte
}

// Factory creates controllers — fresh ones at mission start, and
// loaded ones during audits (the auditor puts a replica of the
// auditee's controller in the state of a checkpoint). Every robot in
// an MRS runs the same mission-installed protocol, so the auditor
// always has the auditee's factory.
type Factory interface {
	// New returns a controller in its canonical initial state for the
	// given robot. The initial state must be a pure function of the
	// robot ID and mission configuration: an auditor replaying a
	// from-boot segment reconstructs it the same way.
	New(id wire.RobotID) Controller
	// Load returns robot id's controller in the state an AppendState
	// encoding describes, or in New's initial state when state is nil
	// (any other slice, empty included, is decoded). c is nil or a
	// controller this factory returned before, for any robot and in any
	// state, including one a failed Load left; Load reuses its storage
	// and writes every field, so the result is a function of (id,
	// state) alone. After a failed Load, c is in an unspecified state
	// that only Load may read. Load keeps no reference to state.
	Load(c Controller, id wire.RobotID, state []byte) (Controller, error)
}

// Self is a controller's view of its own robot: its ID, and the time,
// position and velocity of its last sensor reading. Every controller
// embeds one, and every controller's state begins with its SelfSize
// bytes (AppendSelf).
type Self struct {
	ID   wire.RobotID
	Time wire.Tick
	Pos  geom.Vec2 // float64, as the s-node reports it
	Vel  geom.Vec2 // float32 on the wire, widened

	bcast [wire.StateMsgSize]byte // Outputs.Broadcast, lent until the next call
}

// SelfSize is the size of Self's state encoding: time, position
// (2×f64) and velocity (2×f32).
const SelfSize = 8 + 16 + 8

// Sense records reading r as the robot's current time and pose.
func (s *Self) Sense(r wire.SensorReading) {
	s.Time = r.Time
	s.Pos = geom.V(r.PosX, r.PosY)
	s.Vel = geom.V(float64(r.VelX), float64(r.VelY))
}

// Steer returns the PD command toward target: a spring on the offset,
// a damper on the velocity, saturated per axis.
func (s *Self) Steer(target geom.Vec2, p Steering) geom.Vec2 {
	return target.Sub(s.Pos).Scale(p.KP).
		Add(s.Vel.Neg().Scale(p.KD)).
		ClampAxes(p.AccelCap)
}

// Act returns the Outputs of a control step commanding u: the command,
// plus the robot's state broadcast on its broadcast ticks. Broadcasts
// are staggered across robots by a per-ID phase (Time % period ==
// ID % period), so a team does not key up in the same tick; the phase
// is a pure function of the ID, so replay agrees. A zero period never
// broadcasts.
func (s *Self) Act(u geom.Vec2, period wire.Tick) Outputs {
	out := Outputs{Cmd: wire.ActuatorCmd{Time: s.Time, AccX: u.X, AccY: u.Y}, HasCmd: true}
	if period > 0 && s.Time%period == wire.Tick(s.ID)%period {
		m := wire.StateMsg{Src: s.ID, Time: s.Time,
			PosX: float32(s.Pos.X), PosY: float32(s.Pos.Y),
			VelX: float32(s.Vel.X), VelY: float32(s.Vel.Y)}
		out.Broadcast = m.AppendEncode(s.bcast[:0])
	}
	return out
}

// AppendSelf appends the SelfSize-byte state header: time, position,
// velocity. (It is not AppendState, so a controller that forgot its
// own AppendState does not compile.)
func (s *Self) AppendSelf(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(s.Time))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(s.Pos.X))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(s.Pos.Y))
	dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(float32(s.Vel.X)))
	return binary.BigEndian.AppendUint32(dst, math.Float32bits(float32(s.Vel.Y)))
}

// ReadSelf decodes AppendSelf's header; r holds the first error.
func (s *Self) ReadSelf(r *wire.Reader) {
	s.Time = wire.Tick(r.U64())
	s.Pos = geom.V(r.F64(), r.F64())
	s.Vel = geom.V(float64(r.F32()), float64(r.F32()))
}

// Steering configures a waypoint controller's PD steering and its
// state broadcasts: a waypoint within ArriveRadius meters counts as
// reached; KP and KD are the gains of Self.Steer and AccelCap its
// per-axis saturation; BroadcastPeriod is the state-broadcast interval
// in ticks.
type Steering struct {
	ArriveRadius    float64
	KP, KD          float64
	AccelCap        float64
	BroadcastPeriod wire.Tick
}

// Peer is the last state heard from a peer robot. Positions and
// velocities are kept as float32, exactly the precision they arrived
// with over the air, so checkpoint round-trips are lossless.
type Peer struct {
	ID         wire.RobotID
	LastHeard  wire.Tick // controller-local time when the state was recorded
	PosX, PosY float32
	VelX, VelY float32
}

// PeerSize is a Peer's encoded size: U16 ID, U64 tick, 4×F32.
const PeerSize = 2 + 8 + 16

// Peers is a table of heard peers, sorted by ID, one entry each.
type Peers []Peer

// Hear records payload, if it parses as a state broadcast from a robot
// other than self, as that robot's entry, heard at now. The claimed
// source ID is not authenticated: this is the surface the §5.3
// spoofing attack exploits.
func (ps *Peers) Hear(payload []byte, self wire.RobotID, now wire.Tick) {
	m, err := wire.DecodeStateMsg(payload)
	if err != nil || m.Src == self {
		return
	}
	p := Peer{ID: m.Src, LastHeard: now, PosX: m.PosX, PosY: m.PosY, VelX: m.VelX, VelY: m.VelY}
	t := *ps
	i := sort.Search(len(t), func(i int) bool { return t[i].ID >= m.Src })
	if i < len(t) && t[i].ID == m.Src {
		t[i] = p
		return
	}
	t = append(t, Peer{})
	copy(t[i+1:], t[i:])
	t[i] = p
	*ps = t
}

// AppendPeers appends the table's encoding, 2+len(ps)×PeerSize bytes:
// a U16 count, then each entry in ID order.
func (ps Peers) AppendPeers(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(ps)))
	for _, p := range ps {
		dst = binary.BigEndian.AppendUint16(dst, uint16(p.ID))
		dst = binary.BigEndian.AppendUint64(dst, uint64(p.LastHeard))
		dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(p.PosX))
		dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(p.PosY))
		dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(p.VelX))
		dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(p.VelY))
	}
	return dst
}

// ReadPeers decodes AppendPeers' encoding into ps, reusing its
// storage. It rejects a count the rest of the payload cannot hold and
// entries out of ascending ID order.
func (ps *Peers) ReadPeers(r *wire.Reader) error {
	n := int(r.U16())
	if n > r.Remaining()/PeerSize {
		return fmt.Errorf("peer count %d exceeds payload", n)
	}
	*ps = slices.Grow((*ps)[:0], n)
	for i := 0; i < n; i++ {
		p := Peer{ID: wire.RobotID(r.U16()), LastHeard: wire.Tick(r.U64()),
			PosX: r.F32(), PosY: r.F32(), VelX: r.F32(), VelY: r.F32()}
		if i > 0 && p.ID <= (*ps)[i-1].ID {
			return errors.New("non-canonical peer order")
		}
		*ps = append(*ps, p)
	}
	return nil
}
