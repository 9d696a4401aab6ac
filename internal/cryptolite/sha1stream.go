package cryptolite

import (
	"encoding/binary"
	"errors"

	//rebound:tcb-exempt keyless stdlib digest, the streaming SHA-1 on a CPU without the SHA extensions; bit-equality with the from-scratch SHA1Hasher is pinned on both paths by TestSHA1StreamMatchesReference
	"crypto/sha1"
	//rebound:tcb-exempt interface type of the stdlib digest above; no key material
	"hash"
)

// useKernel selects the SHA-NI kernel for SHA1Stream and SHA1Sum. It is
// decided once, from the CPU; tests clear it to run the fallback.
var useKernel = hasSHANI()

// SHA1UsesSHANI reports whether SHA1Stream and SHA1Sum run on the
// SHA-NI kernel in this process, rather than on crypto/sha1.
func SHA1UsesSHANI() bool { return useKernel }

// SHA1Stream is an incremental SHA-1 for the hash-chain hot path: every
// robot's s-node and a-node chains and the auditors' replica chains
// (§3.4, §3.7) feed every log entry through it. It is the untrusted
// host's SHA-1, not the trusted MCU's, so it runs on the fastest
// compression the CPU offers:
//   - on amd64 with the SHA extensions, a digest held in the stream that
//     calls the SHA-NI kernel (blockSHANI) directly;
//   - elsewhere, the standard library's digest, which is assembly on
//     arm64 and s390x (on amd64 without SHA-NI, Go's blockAMD64).
//
// The from-scratch SHA1Hasher stays the reference and the trusted-node
// cost model's SHA-1: TestSHA1StreamMatchesReference pins both paths to
// it bit for bit over arbitrary write splits, and ChainExtend — the
// §3.8 batch definition the streaming chain is tested against — runs on
// it.
//
// The zero value is ready to use. A stream on the kernel allocates
// nothing; one on the fallback allocates its digest once.
type SHA1Stream struct {
	// d is the running digest on the kernel. On the fallback it keeps
	// only the message length (see Len), and its block buffer backs
	// Sum's output, which would escape through hash.Hash from the stack.
	d digest
	// std is the standard library's digest on the fallback, nil on the
	// kernel.
	std hash.Hash
}

// SHA1Sum is the one-shot SHA-1 on the same compression as SHA1Stream,
// for the untrusted c-node's multi-kilobyte checkpoint hashes (h_ckpt,
// taken per round by the auditee and twice per replayed segment by the
// auditor). SHA1 stays the from-scratch reference that the trusted-node
// cost model measures; TestSHA1SumMatchesReference pins the two
// bit-identical.
func SHA1Sum(data []byte) [SHA1Size]byte {
	if !useKernel {
		return sha1.Sum(data)
	}
	var d digest
	d.write(data, true)
	return d.sum(true)
}

// SHA1Blocks is the number of compressions SHA-1 runs over an n-byte
// message: its blocks once padded with 0x80 and the 8-byte length.
func SHA1Blocks(n uint64) uint64 { return (n+8)/64 + 1 }

// Reset restarts the stream at the SHA-1 initial state.
func (s *SHA1Stream) Reset() {
	s.d.reset()
	switch {
	case useKernel:
		s.std = nil
	case s.std == nil:
		s.std = sha1.New()
	default:
		s.std.Reset()
	}
}

// Write absorbs p into the running digest.
func (s *SHA1Stream) Write(p []byte) {
	if !s.d.init {
		s.Reset()
	}
	if s.std == nil {
		s.d.write(p, true)
		return
	}
	s.std.Write(p)
	s.d.length += uint64(len(p))
}

// Len returns the number of bytes written since the last Reset.
func (s *SHA1Stream) Len() uint64 { return s.d.length }

// Sum returns the digest of everything written since the last Reset.
// It does not disturb the stream: it finalizes a copy.
func (s *SHA1Stream) Sum() [SHA1Size]byte {
	if !s.d.init {
		s.Reset()
	}
	if s.std == nil {
		d := s.d
		return d.sum(true)
	}
	return [SHA1Size]byte(s.std.Sum(s.d.block[:0]))
}

// MarshalState serializes the running digest — Merkle–Damgård chaining
// values plus the unprocessed block tail — so a snapshot can capture a
// hash chain mid-batch and the restored stream absorbs the remaining
// entries into the identical digest. The bytes are crypto/sha1's own
// MarshalBinary format on both paths (stable: it is part of Go's
// encoding compatibility surface), so a state captured on one path
// resumes on the other. Callers treat them as opaque.
func (s *SHA1Stream) MarshalState() []byte {
	if !s.d.init {
		s.Reset()
	}
	if s.std == nil {
		return s.d.appendState(make([]byte, 0, sha1StateSize))
	}
	// Package hash documents that the standard library's digests
	// implement encoding.BinaryMarshaler, and sha1's marshaling always
	// returns a nil error: there is no failure to report.
	b, _ := s.std.(interface{ MarshalBinary() ([]byte, error) }).MarshalBinary()
	return b
}

// UnmarshalState restores a digest previously captured by
// MarshalState. Malformed bytes error; the stream is left reset.
func (s *SHA1Stream) UnmarshalState(b []byte) error {
	s.Reset()
	var d digest
	if err := d.restoreState(b); err != nil {
		return err
	}
	if s.std != nil {
		// crypto/sha1 accepts what restoreState accepted.
		if err := s.std.(interface{ UnmarshalBinary([]byte) error }).UnmarshalBinary(b); err != nil {
			s.Reset()
			return err
		}
		s.d.length = d.length
		return nil
	}
	s.d = d
	return nil
}

// The crypto/sha1 MarshalBinary format: magic ‖ h[0..4] ‖ the 64-byte
// block, unprocessed tail then zeros ‖ length, all big-endian.
const (
	sha1StateMagic = "sha\x01"
	sha1StateSize  = len(sha1StateMagic) + 5*4 + 64 + 8
)

func (d *digest) appendState(b []byte) []byte {
	b = append(b, sha1StateMagic...)
	for _, v := range d.h {
		b = binary.BigEndian.AppendUint32(b, v)
	}
	n := int(d.length % 64)
	b = append(b, d.block[:n]...)
	b = append(b, make([]byte, 64-n)...)
	return binary.BigEndian.AppendUint64(b, d.length)
}

func (d *digest) restoreState(b []byte) error {
	if len(b) < len(sha1StateMagic) || string(b[:len(sha1StateMagic)]) != sha1StateMagic {
		return errors.New("cryptolite: invalid sha1 state identifier")
	}
	if len(b) != sha1StateSize {
		return errors.New("cryptolite: invalid sha1 state size")
	}
	b = b[len(sha1StateMagic):]
	for i := range d.h {
		d.h[i] = binary.BigEndian.Uint32(b[4*i:])
	}
	copy(d.block[:], b[20:84])
	d.length = binary.BigEndian.Uint64(b[84:])
	d.init = true
	return nil
}
