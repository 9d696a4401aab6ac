package cryptolite

import (
	"errors"

	//rebound:tcb-exempt keyless stdlib digest backing the streaming chain; bit-equality with the from-scratch SHA1Hasher is pinned by TestSHA1StreamMatchesReference
	"crypto/sha1"
	//rebound:tcb-exempt interface type of the stdlib digest above; no key material
	"hash"
)

// SHA1Stream is an incremental SHA-1 for the hash-chain hot path. It
// delegates to the standard library's digest (assembly/SHA-NI on most
// platforms) instead of the from-scratch SHA1Hasher, because the
// streaming chain feeds every log entry of every robot through it —
// at swarm scale the pure-Go compression function dominates the
// profile. The from-scratch implementation remains the reference:
// TestSHA1StreamMatchesReference pins the two bit-identical over
// arbitrary write splits, and ChainExtend — the §3.8 batch definition
// the streaming chain is tested against — still runs on SHA1Hasher.
//
// The zero value is ready to use; Reset reuses the underlying digest,
// so a long-lived stream allocates exactly once.
type SHA1Stream struct {
	h hash.Hash
	// sum backs Sum's output: an out buffer declared on the caller's
	// stack would escape through the hash.Hash interface and allocate
	// per call; this field lives with the (heap-resident) stream.
	sum [SHA1Size]byte
}

// SHA1Sum is the one-shot SHA-1 on the same stdlib digest, for the
// untrusted c-node's multi-kilobyte checkpoint hashes (h_ckpt, taken
// per round by the auditee and twice per replayed segment by the
// auditor). SHA1 stays the from-scratch reference that the trusted-node
// cost model measures; TestSHA1SumMatchesReference pins the two
// bit-identical.
func SHA1Sum(data []byte) [SHA1Size]byte { return sha1.Sum(data) }

// Reset restarts the stream at the SHA-1 initial state.
func (s *SHA1Stream) Reset() {
	if s.h == nil {
		s.h = sha1.New()
		return
	}
	s.h.Reset()
}

// Write absorbs p into the running digest.
func (s *SHA1Stream) Write(p []byte) {
	if s.h == nil {
		s.h = sha1.New()
	}
	s.h.Write(p)
}

// MarshalState serializes the running digest — Merkle–Damgård chaining
// values plus the unprocessed block tail — so a snapshot can capture a
// hash chain mid-batch and the restored stream absorbs the remaining
// entries into the identical digest. The bytes are the stdlib digest's
// own binary marshaling (stable: it is part of Go's encoding
// compatibility surface) and are treated as opaque by callers.
func (s *SHA1Stream) MarshalState() []byte {
	if s.h == nil {
		s.h = sha1.New()
	}
	// Package hash documents that the standard library's digests
	// implement encoding.BinaryMarshaler, and sha1's marshaling always
	// returns a nil error: there is no failure to report.
	b, _ := s.h.(interface{ MarshalBinary() ([]byte, error) }).MarshalBinary()
	return b
}

// UnmarshalState restores a digest previously captured by
// MarshalState. Malformed bytes error; the stream is left reset.
func (s *SHA1Stream) UnmarshalState(b []byte) error {
	if s.h == nil {
		s.h = sha1.New()
	}
	u, ok := s.h.(interface{ UnmarshalBinary([]byte) error })
	if !ok {
		return errors.New("cryptolite: sha1 digest does not support state unmarshaling")
	}
	if err := u.UnmarshalBinary(b); err != nil {
		s.h.Reset()
		return err
	}
	return nil
}

// Sum returns the digest of everything written since the last Reset.
// It does not disturb the stream (the standard digest finalizes a
// copy), but chain code always Resets before reuse anyway.
func (s *SHA1Stream) Sum() [SHA1Size]byte {
	if s.h == nil {
		s.h = sha1.New()
	}
	s.h.Sum(s.sum[:0])
	return s.sum
}
