// Package control defines the deterministic-controller abstraction at
// the heart of RoboRebound's auditability. A controller is a state
// machine whose only inputs are sensor readings and received message
// payloads and whose only outputs are actuator commands and broadcast
// payloads; given the same checkpoint and the same input sequence it
// must reproduce the same outputs bit-for-bit, which is what lets an
// auditor verify a robot by deterministic replay (§3.7, §3.9).
package control

import "roborebound/internal/wire"

// Outputs is what a controller emits in response to one input event.
// Emission happens synchronously: the c-node logs and forwards these
// before processing the next input, and the replay engine checks them
// in exactly that position.
type Outputs struct {
	// Broadcast, if non-nil, is an application payload to broadcast
	// over the radio (e.g. an encoded StateMsg).
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
	// EncodeState returns a canonical serialization of the complete
	// controller state, suitable for checkpointing. Two controllers
	// with equal state must produce identical bytes.
	EncodeState() []byte
}

// Factory creates controllers — fresh ones at mission start, and
// restored ones during audits (the auditor instantiates a replica of
// the auditee's controller from a checkpoint). Every robot in an MRS
// runs the same mission-installed protocol, so the auditor always has
// the auditee's factory.
type Factory interface {
	// New returns a controller in its canonical initial state for the
	// given robot. The initial state must be a pure function of the
	// robot ID and mission configuration: an auditor replaying a
	// from-boot segment reconstructs it the same way.
	New(id wire.RobotID) Controller
	// Restore reconstructs a controller from an EncodeState snapshot.
	Restore(id wire.RobotID, state []byte) (Controller, error)
}
