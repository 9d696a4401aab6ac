package trusted

import (
	"encoding/binary"

	"roborebound/internal/cryptolite"
	"roborebound/internal/wire"
)

// nodeBase is the state and functions shared by s-nodes and a-nodes
// (Algorithm 2): the one-time master key, the per-mission key, and the
// batched hash chain.
type nodeBase struct {
	kind  uint8        //rebound:snapshot-skip construction identity, not run state
	robID wire.RobotID //rebound:snapshot-skip construction identity, not run state
	// master is nil until LOADMASTERKEY; write-once ("flash").
	master []byte //rebound:snapshot-skip key material, re-injected at rebuild
	keySeq uint64

	clock Clock                //rebound:snapshot-skip clock wiring, reattached at rebuild
	mac   *cryptolite.LightMAC // nil ⇔ key = 0 in the paper
	chain *Chain

	// macOps counts MAC computations and hashedBytes counts bytes fed
	// through the hash, for the Table 1/2 load accounting. Counters are
	// observability-only; the protocol never reads them.
	macOps      uint64
	hashedBytes uint64
}

func newNodeBase(kind uint8, batchSize int, clock Clock) nodeBase {
	return nodeBase{kind: kind, chain: NewChain(batchSize), clock: clock}
}

// LoadMasterKey sets the master key and robot ID; it is one-time
// programmable — subsequent calls are silently ignored, exactly as in
// Algorithm 2 (the "flash var" can only be burned once).
func (n *nodeBase) LoadMasterKey(master []byte, id wire.RobotID) {
	if n.master != nil {
		return
	}
	n.master = append([]byte(nil), master...)
	n.robID = id
}

// LoadMissionKey installs a fresh mission key (Algorithm 2,
// LOADMISSIONKEY). It verifies the MAC under the master key, requires
// a strictly increasing sequence number (anti-replay across
// power-ups), and unblinds the key with H(r ‖ masterKey). Returns
// whether the key was accepted.
func (n *nodeBase) LoadMissionKey(sealed SealedMissionKey) bool {
	if n.master == nil {
		return false
	}
	if sealed.Seq <= n.keySeq {
		return false
	}
	in := mkeyMACInput(sealed.Blinded, sealed.R, sealed.Seq)
	if !masterMAC(n.master).Verify(in[:], sealed.Mac) {
		return false
	}
	pad := blindPad(n.master, sealed.R)
	var secret [MissionKeySize]byte
	for i := range secret {
		secret[i] = sealed.Blinded[i] ^ pad[i]
	}
	n.keySeq = sealed.Seq
	n.mac = cryptolite.NewLightMACFromSecret(secret[:])
	return true
}

// HasKey reports whether a mission key is installed (key ≠ 0).
func (n *nodeBase) HasKey() bool { return n.mac != nil }

// powerCycle models removing and restoring power: RAM state (mission
// key, chain buffer and top) is lost; flash state (master key, robot
// ID, key sequence) persists — which is exactly what makes replaying a
// previous mission's sealed key useless (§3.3). The chain restarts at
// h₀.
func (n *nodeBase) powerCycle() {
	n.mac = nil
	n.chain = n.chain.Fresh()
}

// ID returns the robot ID burned at provisioning time.
func (n *nodeBase) ID() wire.RobotID { return n.robID }

// zeroKey drops the mission key; every guarded function then returns
// early ("key ← 0" in CHECKTOKENS).
func (n *nodeBase) zeroKey() { n.mac = nil }

// appendToChain commits one log entry. The chain streams the header
// and payload directly into its hasher, so committing never encodes
// or copies the entry; callers that also need the wire encoding (to
// hand the identical bytes to the c-node) produce it themselves.
func (n *nodeBase) appendToChain(kind uint8, payload []byte) {
	n.hashedBytes += uint64(2 + len(payload)) // header ‖ payload, see wire.LogEntry
	n.chain.AppendEntry(kind, payload)
}

// The MAC inputs are fixed-layout and a few dozen bytes, so each is
// built in an array the caller keeps on its stack and hands to
// LightMAC as in[:] (MAC and Verify do not retain their argument) —
// the MCU's shape: no heap, one MAC over a fixed buffer (§4).

const authMACInputSize = 2 + 8 + cryptolite.SHA1Size + 2

// authMACInput lays out AUTH ‖ kind ‖ t ‖ top ‖ id.
func authMACInput(kind uint8, t wire.Tick, top cryptolite.ChainHash, id wire.RobotID) (in [authMACInputSize]byte) {
	in[0] = tagAUTH
	in[1] = kind
	binary.BigEndian.PutUint64(in[2:], uint64(t))
	copy(in[10:], top[:])
	binary.BigEndian.PutUint16(in[10+cryptolite.SHA1Size:], uint16(id))
	return in
}

// MakeAuthenticator flushes the chain and returns an authenticator for
// its top (Algorithm 2), stamped with the node's local time so that an
// auditor can require end-of-segment authenticators to be fresh (see
// wire.Authenticator). Returns ok=false when no mission key is
// installed.
func (n *nodeBase) MakeAuthenticator() (wire.Authenticator, bool) {
	if n.mac == nil {
		return wire.Authenticator{}, false
	}
	top := n.chain.Flush()
	t := n.clock()
	n.macOps++
	in := authMACInput(n.kind, t, top, n.robID)
	return wire.Authenticator{
		NodeKind: n.kind,
		T:        t,
		Top:      top,
		ID:       n.robID,
		Mac:      n.mac.MAC(in[:]),
	}, true
}

// CheckAuthenticator verifies an authenticator from any robot in the
// MRS (they all share the mission key). Used by the auditor after
// replay (§3.7) — the check runs on the auditor's own trusted node, so
// the key never leaves trusted hardware.
func (n *nodeBase) CheckAuthenticator(a wire.Authenticator) bool {
	if n.mac == nil {
		return false
	}
	n.macOps++
	in := authMACInput(a.NodeKind, a.T, a.Top, a.ID)
	return n.mac.Verify(in[:], a.Mac)
}

// MACOps returns the number of MAC computations performed, for the
// Table 1/2 load model.
func (n *nodeBase) MACOps() uint64 { return n.macOps }

// HashedBytes returns the total bytes appended to the hash chain.
func (n *nodeBase) HashedBytes() uint64 { return n.hashedBytes }
