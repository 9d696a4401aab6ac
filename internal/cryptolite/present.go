package cryptolite

import "encoding/binary"

// PRESENT-80 (Bogdanov et al., CHES 2007) is an ultra-lightweight
// 64-bit block cipher with an 80-bit key and 31 rounds — the class of
// cipher LightMAC recommends for resource-constrained nodes, and the
// natural fit for the paper's 80-bit-key / 64-bit-tag configuration
// (§4). Only encryption is needed: LightMAC never decrypts.

// PresentKeySize is the PRESENT-80 key size in bytes.
const PresentKeySize = 10

// PresentBlockSize is the PRESENT block size in bytes.
const PresentBlockSize = 8

const presentRounds = 31

var presentSBox = [16]byte{
	0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD,
	0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2,
}

// Present holds the expanded round keys for one PRESENT-80 key.
type Present struct {
	rk [presentRounds + 1]uint64
}

// NewPresent expands an 80-bit key into the 32 round keys.
func NewPresent(key [PresentKeySize]byte) *Present {
	p := new(Present)
	p.expand(key)
	return p
}

// expand writes key's schedule into p in place, for a holder that
// embeds its Present by value (LightMAC).
//
// The 80-bit key register is held as v1 (bits 79..64, the top 16 bits)
// and v0 (bits 63..0). Per the PRESENT spec, each round the register
// is (1) rotated left by 61 bits, (2) has the S-box applied to its
// leftmost nibble, and (3) has the round counter XORed into bits
// 19..15; the round key is always the leftmost 64 bits (79..16).
func (p *Present) expand(key [PresentKeySize]byte) {
	v1 := uint64(binary.BigEndian.Uint16(key[:2]))
	v0 := binary.BigEndian.Uint64(key[2:])

	for round := uint64(1); ; round++ {
		p.rk[round-1] = v1<<48 | v0>>16 // leftmost 64 bits
		if round > presentRounds {
			break
		}
		// 1. Rotate left 61 == rotate right 19 on the 80-bit value.
		nv0 := v0>>19 | v1<<45 | v0<<61
		nv1 := v0 >> 3 & 0xFFFF
		v0, v1 = nv0, nv1
		// 2. S-box on bits 79..76 (the top nibble of v1).
		v1 = v1&0x0FFF | uint64(presentSBox[v1>>12])<<12
		// 3. Round counter into bits 19..15 (entirely within v0).
		v0 ^= round << 15
	}
}

// spTable fuses the S-box and permutation layers: spTable[j][b] is the
// scattered contribution of byte j of the state after substitution and
// permutation. One round then costs 8 table lookups instead of 16
// nibble substitutions plus a 64-step bit scatter — the same
// time/space tradeoff an optimized MCU implementation makes.
var spTable = func() (t [8][256]uint64) {
	for j := 0; j < 8; j++ {
		for b := 0; b < 256; b++ {
			lo := presentSBox[b&0xF]
			hi := presentSBox[b>>4]
			sub := uint64(lo)<<(uint(j)*8) | uint64(hi)<<(uint(j)*8+4)
			t[j][b] = presentPermute(sub)
		}
	}
	return
}()

// Encrypt encrypts one 64-bit block.
func (p *Present) Encrypt(block uint64) uint64 {
	state := block
	for r := 0; r < presentRounds; r++ {
		state ^= p.rk[r]
		state = spTable[0][state&0xFF] |
			spTable[1][state>>8&0xFF] |
			spTable[2][state>>16&0xFF] |
			spTable[3][state>>24&0xFF] |
			spTable[4][state>>32&0xFF] |
			spTable[5][state>>40&0xFF] |
			spTable[6][state>>48&0xFF] |
			spTable[7][state>>56&0xFF]
	}
	return state ^ p.rk[presentRounds]
}

// EncryptBlock encrypts an 8-byte block in big-endian convention.
func (p *Present) EncryptBlock(dst, src []byte) {
	ct := p.Encrypt(binary.BigEndian.Uint64(src))
	binary.BigEndian.PutUint64(dst, ct)
}

func presentSubstitute(s uint64) uint64 {
	var out uint64
	for i := 0; i < 16; i++ {
		nib := byte(s >> (uint(i) * 4) & 0xF)
		out |= uint64(presentSBox[nib]) << (uint(i) * 4)
	}
	return out
}

func presentPermute(s uint64) uint64 {
	var out uint64
	for i := uint(0); i < 63; i++ {
		out |= (s >> i & 1) << (i * 16 % 63)
	}
	out |= (s >> 63 & 1) << 63 // bit 63 is a fixed point of the permutation
	return out
}
