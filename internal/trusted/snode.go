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

// NewSNode constructs an s-node with the given chain batch size (see
// Init).
func NewSNode(batchSize int, clock Clock) *SNode {
	s := new(SNode)
	s.Init(batchSize, clock)
	return s
}

// Init sets s up in place as a fresh, unprovisioned s-node with the
// given chain batch size. The clock is the s-node's own local timer
// (§3.2: every trusted MCU has one); it shares the robot's power-up
// instant with the a-node's.
func (s *SNode) Init(batchSize int, clock Clock) {
	*s = SNode{}
	s.nodeBase.init(wire.NodeS, batchSize, clock)
}

// PollSensorsEnc commits a sensor reading to the chain and returns it
// for forwarding to the c-node, with the payload encoding the chain
// witnessed: the c-node must log exactly those bytes or its audits
// fail. ok is false when no mission key is installed yet (the reading
// is then withheld, as in Algorithm 3). The bytes live in the node's
// own buffer and are lent until the next PollSensorsEnc overwrites
// them; a c-node that keeps them copies them.
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
