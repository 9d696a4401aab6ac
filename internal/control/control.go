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

import "roborebound/internal/wire"

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
