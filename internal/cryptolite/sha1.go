// Package cryptolite implements the two cryptographic primitives
// RoboRebound relies on (§4 "Cryptography"): SHA-1 for the trusted
// nodes' hash chains and LightMAC — instantiated over the PRESENT-80
// lightweight block cipher with 80-bit keys and 64-bit tags — for
// authenticators, token requests, and tokens.
//
// Both are implemented from scratch, as they would be in the few
// hundred lines of ROM code the paper burns into the PIC MCUs, and are
// validated against published test vectors. The package additionally
// provides the hash-chain construction shared by the s-node and
// a-node (§3.4).
package cryptolite

import "encoding/binary"

// SHA1Size is the size of a SHA-1 digest in bytes.
const SHA1Size = 20

// SHA1 computes the SHA-1 digest of data (FIPS 180-1). The paper
// argues SHA-1 is sufficient for mission-length integrity windows
// (hours); swapping the hash only requires replacing this function.
func SHA1(data []byte) [SHA1Size]byte {
	var h SHA1Hasher
	h.Write(data)
	return h.Sum()
}

// SHA1Hasher is an incremental SHA-1 state. The zero value is ready to
// use.
type SHA1Hasher struct{ d digest }

// Write absorbs p into the hash state. It never fails.
func (h *SHA1Hasher) Write(p []byte) (int, error) {
	h.d.write(p, false)
	return len(p), nil
}

// Sum finalizes and returns the digest. The hasher must not be reused
// after Sum (matching how the trusted-node ROM code uses it: one shot
// per chain flush).
func (h *SHA1Hasher) Sum() [SHA1Size]byte { return h.d.sum(false) }

// digest is SHA-1's message buffering and padding around a multi-block
// compression: the from-scratch blockGeneric for SHA1Hasher, and the
// SHA-NI kernel for the streaming digests where the CPU has it (see
// SHA1Stream). The zero value is ready to use.
type digest struct {
	h      [5]uint32
	block  [64]byte // the message's last length%64 bytes, not yet compressed
	init   bool
	length uint64 // message length in bytes
}

func (d *digest) reset() {
	d.h = [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}
	d.length = 0
	d.init = true
}

// blocks compresses p's whole blocks, on the kernel or on blockGeneric.
func (d *digest) blocks(p []byte, kernel bool) {
	if kernel {
		blockSHANI(&d.h, p)
	} else {
		blockGeneric(&d.h, p)
	}
}

func (d *digest) write(p []byte, kernel bool) {
	if !d.init {
		d.reset()
	}
	n := int(d.length % 64)
	d.length += uint64(len(p))
	if n+len(p) < 64 {
		copy(d.block[n:], p) // the chains' common case: an entry's header or payload
		return
	}
	if n > 0 {
		c := copy(d.block[n:], p)
		d.blocks(d.block[:], kernel)
		p = p[c:]
	}
	whole := len(p) &^ 63
	if whole > 0 {
		d.blocks(p[:whole], kernel)
	}
	copy(d.block[:], p[whole:])
}

// sum pads the message (0x80, zeros to 56 mod 64, then the bit length)
// and returns the digest; d is spent.
func (d *digest) sum(kernel bool) [SHA1Size]byte {
	if !d.init {
		d.reset()
	}
	var pad [72]byte
	pad[0] = 0x80
	padLen := 64 - (int(d.length)+8)%64
	if padLen <= 0 {
		padLen += 64
	}
	binary.BigEndian.PutUint64(pad[padLen:], d.length*8)
	d.write(pad[:padLen+8], kernel)
	var out [SHA1Size]byte
	for i, v := range d.h {
		binary.BigEndian.PutUint32(out[i*4:], v)
	}
	return out
}

// blockGeneric is the from-scratch compression (FIPS 180-1 §7), one
// 64-byte block of p at a time.
func blockGeneric(h *[5]uint32, p []byte) {
	var w [80]uint32
	for ; len(p) >= 64; p = p[64:] {
		for i := 0; i < 16; i++ {
			w[i] = binary.BigEndian.Uint32(p[i*4:])
		}
		for i := 16; i < 80; i++ {
			t := w[i-3] ^ w[i-8] ^ w[i-14] ^ w[i-16]
			w[i] = t<<1 | t>>31
		}
		a, b, c, dd, e := h[0], h[1], h[2], h[3], h[4]
		for i := 0; i < 80; i++ {
			var f, k uint32
			switch {
			case i < 20:
				f = (b & c) | (^b & dd)
				k = 0x5A827999
			case i < 40:
				f = b ^ c ^ dd
				k = 0x6ED9EBA1
			case i < 60:
				f = (b & c) | (b & dd) | (c & dd)
				k = 0x8F1BBCDC
			default:
				f = b ^ c ^ dd
				k = 0xCA62C1D6
			}
			t := (a<<5 | a>>27) + f + e + k + w[i]
			e, dd, c, b, a = dd, c, (b<<30 | b>>2), a, t
		}
		h[0] += a
		h[1] += b
		h[2] += c
		h[3] += dd
		h[4] += e
	}
}
