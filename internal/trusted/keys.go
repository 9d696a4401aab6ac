// Package trusted implements the two small trusted hardware components
// RoboRebound adds to each robot (§3.2): the s-node, which interposes
// on sensors, and the a-node, which interposes on actuators and the
// radio. It is the trust boundary of the whole system: everything in
// this package corresponds to the ~250 lines of C the paper burns into
// ROM on €3 PIC MCUs, and it deliberately knows nothing about
// flocking, logging policy, or the simulator.
//
// The package follows Algorithms 2–4 of the paper. Functions the
// c-node can invoke are exported methods; everything else is private,
// mirroring the ROM/RAM split on the real MCUs. Node state is
// fixed-size, as on an MCU with no heap: keys, key schedules and the
// hash chain are held by value, the a-node's wiring is one interface
// value, and a host can embed both nodes in a larger object and set
// them up in place with Init. What still grows is bounded by the
// mission, not by time: the token map (one slot per auditor) and the
// buffers that lend encodings to the c-node.
package trusted

import (
	"encoding/binary"

	"roborebound/internal/cryptolite"
	"roborebound/internal/wire"
)

// MAC domain-separation tags. Every MAC covers a constant type
// identifier (§3.10) so that, e.g., a token can never be replayed as a
// token request.
const (
	tagMKEY  byte = 0x01
	tagAUTH  byte = 0x02
	tagTREQ  byte = 0x03
	tagTOKEN byte = 0x04
)

// MissionKeySize is the size of the (blinded) mission key in bytes.
const MissionKeySize = cryptolite.SHA1Size

// masterKeyStack is how many master-key bytes a node holds inline and
// the two derivations below in a local array; a longer key still
// works, its copy and its derivation inputs just spill to the heap.
const masterKeyStack = 64

// masterMAC derives the LightMAC keyed by the master key, by value: a
// caller keeps it on its stack for the one MAC it needs.
func masterMAC(master []byte) (m cryptolite.LightMAC) {
	var buf [len("master:") + masterKeyStack]byte
	m.Rekey(append(append(buf[:0], "master:"...), master...))
	return m
}

// blindPad computes H(r ‖ masterKey), the pad that blinds the mission
// key in transit (§3.3): the c-node may already be compromised when
// the mission key is loaded, so the key must be unintelligible without
// the master key.
func blindPad(master []byte, r uint64) [MissionKeySize]byte {
	var buf [8 + masterKeyStack]byte
	return cryptolite.SHA1(append(binary.BigEndian.AppendUint64(buf[:0], r), master...))
}

const mkeyMACInputSize = 1 + MissionKeySize + 8 + 8

// mkeyMACInput lays out MKEY ‖ blinded ‖ r ‖ seq.
func mkeyMACInput(blinded [MissionKeySize]byte, r, seq uint64) (in [mkeyMACInputSize]byte) {
	in[0] = tagMKEY
	copy(in[1:], blinded[:])
	binary.BigEndian.PutUint64(in[1+MissionKeySize:], r)
	binary.BigEndian.PutUint64(in[1+MissionKeySize+8:], seq)
	return in
}

// SealedMissionKey is what the MRS owner distributes at the start of a
// mission: the blinded key, the blinding nonce, a monotonically
// increasing sequence number (anti-replay across power-ups), and a MAC
// under the master key. One sealed key serves every robot of the MRS,
// since all trusted nodes share the master key.
type SealedMissionKey struct {
	Blinded [MissionKeySize]byte
	R       uint64
	Seq     uint64
	Mac     cryptolite.Tag
}

// SealMissionKey is the owner-side counterpart of LOADMISSIONKEY: it
// blinds mission under the master key and authenticates the bundle.
// This function runs on the owner's provisioning machine, never on a
// robot.
func SealMissionKey(master []byte, mission [MissionKeySize]byte, r, seq uint64) SealedMissionKey {
	pad := blindPad(master, r)
	var blinded [MissionKeySize]byte
	for i := range blinded {
		blinded[i] = mission[i] ^ pad[i]
	}
	in := mkeyMACInput(blinded, r, seq)
	mm := masterMAC(master)
	return SealedMissionKey{
		Blinded: blinded,
		R:       r,
		Seq:     seq,
		Mac:     mm.MAC(in[:]),
	}
}

// Clock reads a node-local timer. Each a-node has its own clock and
// the protocol never compares timestamps across robots (§3.5); the
// simulator hands every trusted node a view of its robot's local
// timer, which the c-node has no way to reset (§3.2). Ticks read
// through a Clock are trusted-domain: reboundlint's clockdomain
// analyzer flags any comparison or arithmetic against engine-clock
// values.
//
//rebound:clock trusted
type Clock func() wire.Tick
