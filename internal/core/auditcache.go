package core

import (
	"crypto/sha256"
	"encoding/binary"

	"roborebound/internal/cryptolite"
	"roborebound/internal/replay"
	"roborebound/internal/wire"
)

// AuditCache memoizes replay verdicts across auditors. In a dense
// flock every auditee streams the *same* (checkpoints, tokens, segment)
// to f_max+1 auditors per round, so without a cache the swarm replays
// each segment f_max+1 times. A verdict is a pure function of the
// request content, the protocol parameters, and the mission key — all
// shared across the swarm — never of which auditor computes it (see
// Engine.verifySegment), so one entry serves them all.
//
// The cache holds the verdict plus the checkpoint hash that token
// minting needs, keyed by a SHA-256 over the verdict-relevant request
// bytes (see auditKey). Everything that is auditor-local stays outside
// the cache: identity checks, the serve budget, the token-request MAC
// check inside IssueToken, and token minting all run on every request,
// hit or miss.
//
// The cache is NOT part of the TCB — a wrong verdict in it is exactly
// as harmful as a wrong verdict from a buggy replay, and the
// differential tests compare cached and uncached runs byte for byte.
//
// Eviction is FIFO over a fixed ring: deterministic (no clocks, no
// randomized map iteration) so that runs replay identically.
//
// cap is the cache's logical capacity: the verdict count at which the
// ring starts evicting, and the value snapshots record and check. It
// is not a storage provision. The map and the ring both start empty
// and grow with the verdicts stored, so a 3-robot cell that stores one
// verdict pays for one, not for the 4096 a large swarm may reach.
type AuditCache struct {
	cap  int
	m    map[[32]byte]AuditVerdict
	fifo [][32]byte
	next int

	hits, misses uint64

	// miss is what a cache miss works in. It sits here because the cache
	// is the one object every engine of a swarm already shares and only
	// one of them runs at a time: one set per swarm.
	miss missScratch //rebound:snapshot-skip write-only scratch, no retained state
}

// missScratch is a cache miss's working storage.
type missScratch struct {
	// entries is the decode scratch the miss parses its segment into
	// (see decodeSegment): one window-sized slice per swarm. Per engine,
	// the same scratch is a window-sized slice per robot that each of
	// them keeps at its high-water mark.
	entries []wire.LogEntry
	// machine is the replay machine the miss replays on
	// (replay.Config.Machine): one pair of chain hashers and one
	// controller replica per swarm, repositioned by every replay before
	// it reads them.
	machine replay.Machine
}

// AuditVerdict is one memoized replay outcome. HCkpt is the SHA-1 of
// the request's end checkpoint — like the verdict it is a pure
// function of the request content, so caching it lets a hit skip the
// checkpoint hash along with the replay. It is only consumed when OK
// is true (token minting binds the token to the checkpoint hash).
type AuditVerdict struct {
	OK    bool
	HCkpt cryptolite.ChainHash
}

// DefaultAuditCacheCap bounds the verdict cache; at ~1 verdict per
// robot per round it covers multiple full rounds of a 2000-robot swarm.
// It is an eviction threshold, never a size hint: a cache that stays
// below it never allocates for it.
const DefaultAuditCacheCap = 4096

// NewAuditCache returns an empty cache holding at most capacity
// verdicts (<= 0 selects DefaultAuditCacheCap). Construction costs the
// same whatever the capacity; storage follows the verdicts stored.
func NewAuditCache(capacity int) *AuditCache {
	if capacity <= 0 {
		capacity = DefaultAuditCacheCap
	}
	return &AuditCache{cap: capacity, m: make(map[[32]byte]AuditVerdict)}
}

// Lookup returns the memoized verdict for key, if present.
func (c *AuditCache) Lookup(key [32]byte) (v AuditVerdict, ok bool) {
	v, ok = c.m[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

// Store memoizes a verdict, evicting the oldest entry once full.
func (c *AuditCache) Store(key [32]byte, verdict AuditVerdict) {
	if _, exists := c.m[key]; exists {
		c.m[key] = verdict
		return
	}
	if len(c.fifo) < c.cap {
		c.fifo = append(c.fifo, key)
	} else {
		delete(c.m, c.fifo[c.next])
		c.fifo[c.next] = key
		c.next = (c.next + 1) % c.cap
	}
	c.m[key] = verdict
}

// decodeSegment parses an audit request's encoded segment for replay.
// With a cache attached the entries land in its swarm-shared scratch
// and are valid until releaseSegment; a nil cache (the uncached plane)
// decodes into a fresh slice. Either way every entry's Payload aliases
// seg, i.e. the request payload the auditor received.
func (c *AuditCache) decodeSegment(seg []byte) ([]wire.LogEntry, error) {
	if c == nil {
		return wire.DecodeLogEntries(seg)
	}
	var err error
	c.miss.entries, err = wire.AppendDecodeLogEntries(c.miss.entries[:0], seg)
	return c.miss.entries, err
}

// releaseSegment ends the life of the entries decodeSegment returned.
// The scratch outlives the request it was decoded from, so it is
// cleared: a window-sized slice of payload views would otherwise keep
// the last missed request reachable until the next miss. A no-op on a
// nil cache, whose entries were the caller's own.
func (c *AuditCache) releaseSegment() {
	if c == nil {
		return
	}
	clear(c.miss.entries[:cap(c.miss.entries)])
	c.miss.entries = c.miss.entries[:0]
}

// Len returns the number of memoized verdicts.
func (c *AuditCache) Len() int { return len(c.m) }

// HitsMisses returns the lookup tallies (tests only — deliberately not
// a registry metric: the protocol differential compares a cached run
// with an uncached one and requires their metrics snapshots to be
// identical).
func (c *AuditCache) HitsMisses() (hits, misses uint64) { return c.hits, c.misses }

// auditKey hashes the verdict-relevant content of an audit request:
// the auditee, the request tick, and the request's raw tail bytes
// (FromBoot flag, checkpoints, start tokens, segment — see
// wire.SplitAuditRequest). The tail is canonical wire encoding with
// length-prefixed fields, so byte equality of tails is field equality,
// and hashing the one contiguous slice costs a fraction of re-framing
// each field. The per-auditor head fields (auditor ID, the token
// request's MAC) are deliberately excluded — the verdict must not
// depend on them.
func auditKey(auditee wire.RobotID, reqT wire.Tick, tail []byte) [32]byte {
	h := sha256.New()
	var head [16]byte
	binary.BigEndian.PutUint64(head[0:8], uint64(auditee))
	binary.BigEndian.PutUint64(head[8:16], uint64(reqT))
	h.Write(head[:])
	h.Write(tail)
	var key [32]byte
	h.Sum(key[:0])
	return key
}
