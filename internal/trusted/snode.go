package trusted

import "roborebound/internal/wire"

// SNode is the sensor node (Algorithm 3): it sits between the robot's
// sensors and the c-node, forwarding readings while committing each
// one to its hash chain. A compromised c-node therefore cannot later
// claim its sensors showed something else (§2.5's "strong wind from
// the right" evasion).
type SNode struct {
	nodeBase
	// enc backs the reading encoding lent to the c-node (PollSensorsEnc).
	enc []byte //rebound:snapshot-skip write-only scratch, no retained state
}

// NewSNode constructs an s-node with the given chain batch size. The
// clock is the s-node's own local timer (§3.2: every trusted MCU has
// one); it shares the robot's power-up instant with the a-node's.
func NewSNode(batchSize int, clock Clock) *SNode {
	return &SNode{nodeBase: newNodeBase(wire.NodeS, batchSize, clock)}
}

// PollSensors commits a sensor reading to the chain and returns it for
// forwarding to the c-node. ok is false when no mission key is
// installed yet (the reading is then withheld, as in Algorithm 3).
func (s *SNode) PollSensors(reading wire.SensorReading) (wire.SensorReading, bool) {
	fwd, _, ok := s.PollSensorsEnc(reading)
	return fwd, ok
}

// PollSensorsEnc is PollSensors returning, additionally, the payload
// encoding the s-node committed to its chain — the c-node must log the
// exact bytes the chain witnessed or its audits fail. The bytes live in
// the node's own buffer and are lent until the next PollSensorsEnc
// overwrites them; a c-node that keeps them copies them.
func (s *SNode) PollSensorsEnc(reading wire.SensorReading) (wire.SensorReading, []byte, bool) {
	if !s.HasKey() {
		return wire.SensorReading{}, nil, false
	}
	s.enc = reading.AppendEncode(s.enc[:0])
	s.appendToChain(wire.EntrySensor, s.enc)
	return reading, s.enc, true
}

// PowerCycle models a power cycle (see nodeBase.powerCycle).
func (s *SNode) PowerCycle() { s.powerCycle() }
