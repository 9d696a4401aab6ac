package cryptolite

import "encoding/binary"

// LightMAC (Luykx, Preneel, Tischhauser, Yasuda 2016) is a
// parallelizable MAC mode for lightweight block ciphers whose security
// bound does not degrade with message length. RoboRebound configures
// it with 80-bit keys and 64-bit tags (§4); we instantiate it over
// PRESENT-80 with an s = 16-bit block counter, so each cipher call
// absorbs 48 message bits.
//
//	V    = ⊕_{i=1..t-1} E_{K1}( iₛ ‖ M[i] )        (full 48-bit chunks)
//	tag  = E_{K2}( V ⊕ pad(M[t]) )                 (10*-padded tail)
//
// Tokens, token requests, and authenticators in this repository are
// all authenticated with this construction.

// TagSize is the LightMAC tag size in bytes (64-bit tags, §4).
const TagSize = 8

// Tag is a LightMAC authentication tag.
type Tag [TagSize]byte

const (
	lmCounterBytes = 2                                 // s = 16 bits
	lmChunkBytes   = PresentBlockSize - lmCounterBytes // 6 bytes per cipher call
)

// LightMAC holds the two expanded cipher keys, by value: a keyed node
// is one object, and both schedules are expanded in place.
type LightMAC struct {
	k1, k2 Present
}

// NewLightMAC constructs a LightMAC instance from two independent
// 80-bit PRESENT keys.
func NewLightMAC(k1, k2 [PresentKeySize]byte) *LightMAC {
	m := new(LightMAC)
	m.k1.expand(k1)
	m.k2.expand(k2)
	return m
}

// NewLightMACFromSecret derives the two PRESENT keys from arbitrary
// key material via SHA-1 (domain-separated), mirroring how the mission
// key — delivered as a single secret by LOADMISSIONKEY — keys every
// MAC on the trusted nodes.
func NewLightMACFromSecret(secret []byte) *LightMAC {
	// secret ‖ tag is built once; only the tag byte differs between the
	// two derivations. Secrets here are a mission key or a prefixed
	// master key; a longer one spills to the heap and still works.
	var buf [96]byte
	in := append(append(buf[:0], secret...), 0x01)
	var k1, k2 [PresentKeySize]byte
	h := SHA1(in)
	copy(k1[:], h[:PresentKeySize])
	in[len(secret)] = 0x02
	h = SHA1(in)
	copy(k2[:], h[:PresentKeySize])
	return NewLightMAC(k1, k2)
}

// MAC computes the 64-bit tag over msg.
func (m *LightMAC) MAC(msg []byte) Tag {
	var v uint64
	var block [PresentBlockSize]byte
	ctr := uint16(1)
	// Absorb all full chunks; the final (possibly empty, possibly
	// partial) chunk goes through the K2 call below.
	for len(msg) > lmChunkBytes {
		binary.BigEndian.PutUint16(block[:], ctr)
		copy(block[lmCounterBytes:], msg[:lmChunkBytes])
		v ^= m.k1.Encrypt(binary.BigEndian.Uint64(block[:]))
		msg = msg[lmChunkBytes:]
		ctr++
	}
	// pad(M[t]) = M[t] ‖ 0x80 ‖ 0…  (10* padding on the byte level)
	var last [PresentBlockSize]byte
	n := copy(last[:], msg)
	last[n] = 0x80
	final := m.k2.Encrypt(v ^ binary.BigEndian.Uint64(last[:]))
	var tag Tag
	binary.BigEndian.PutUint64(tag[:], final)
	return tag
}

// Verify reports whether tag is the correct MAC for msg. Comparison is
// constant-time; on a real a-node this prevents byte-at-a-time tag
// forgery via timing.
func (m *LightMAC) Verify(msg []byte, tag Tag) bool {
	want := m.MAC(msg)
	var diff byte
	for i := range want {
		diff |= want[i] ^ tag[i]
	}
	return diff == 0
}
