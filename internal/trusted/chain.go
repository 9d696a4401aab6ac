package trusted

import (
	"encoding/binary"

	"roborebound/internal/cryptolite"
)

// DefaultBatchSize is the number of chain entries hashed per link
// (§3.8: batching amortizes hashing cost on small MCUs; §5.1
// benchmarks ten-message batches).
const DefaultBatchSize = 10

// Chain is the batched hash chain maintained by each trusted node
// (Algorithm 2: appendToChain/flushBuffer). It is exported because the
// auditor must run a bit-identical replica while replaying a log
// segment (§3.7: "it can update the hash chains whenever the s-node or
// a-node would have done so") — exporting the same code is how we
// guarantee the replica never diverges from the node.
//
// The chain streams: each entry is fed straight into a running hasher
// at Append time — no per-entry copy, no batch buffer — and the digest
// is taken at each flush boundary. Append is allocation-free (pinned by
// TestChainAppendDoesNotAllocate). The hash input per batch is
// top ‖ (len ‖ entry)…, exactly what cryptolite.ChainExtend — §3.8 as
// literally written, and the definition — hashes for the same batch;
// TestChainStreamingMatchesBuffered holds the two together at every
// flush boundary.
type Chain struct {
	top cryptolite.ChainHash
	// scratch backs the per-entry length prefix and header writes.
	// Stack arrays would escape through the stream's hash.Hash fallback
	// and heap-allocate on every append; a field on the (already
	// heap-resident) chain does not.
	scratch   [6]byte //rebound:snapshot-skip write-only scratch, no retained state
	batchSize int

	// The running hasher holds top ‖ entries-so-far whenever
	// pending > 0.
	h       cryptolite.SHA1Stream
	pending int

	// compressions counts the SHA-1 compressions the chain's flushes
	// ran. Observation-only: the protocol never reads it.
	compressions uint64 //rebound:snapshot-skip observation-only count, not run state
}

// NewChain returns a chain starting at h₀ = 0 with the given
// batch size. A batchSize of 1 disables batching (the ablation benches
// sweep this).
func NewChain(batchSize int) *Chain {
	return NewChainAt(cryptolite.ChainHash{}, batchSize)
}

// NewChainAt returns a chain replica positioned at an
// arbitrary top value with an empty buffer — the auditor's starting
// point, since authenticators are only ever produced at flush
// boundaries.
func NewChainAt(top cryptolite.ChainHash, batchSize int) *Chain {
	c := new(Chain)
	c.ResetAt(top, batchSize)
	return c
}

// ResetAt repositions the chain at top with an empty buffer and the
// given batch size, as NewChainAt would build it, keeping the hasher it
// already owns: an auditor replays segment after segment on the same
// two replicas. Whatever was pending is dropped — the next append
// restarts the hasher at top (see beginEntry).
func (c *Chain) ResetAt(top cryptolite.ChainHash, batchSize int) {
	if batchSize < 1 {
		batchSize = 1
	}
	c.top, c.batchSize, c.pending = top, batchSize, 0
}

// AppendEntry appends the log entry (kind, payload); when the pending
// count reaches the batch size the chain advances. The entry is hashed
// immediately and nothing is retained, so callers may reuse their
// buffers. Its wire encoding is never materialized: the 2-byte entry
// header goes into the hash in one write with the length prefix it
// sits behind in scratch, the payload bytes in a second. The hashed
// bytes are exactly wire.LogEntry{kind, payload}.Encode() —
// TestChainStreamingMatchesBuffered pins this — so nodes can commit an
// entry and hand the (separately produced) encoding to the c-node
// without an extra encode on the trusted side.
func (c *Chain) AppendEntry(kind uint8, payload []byte) {
	if len(payload) > 255 {
		panic("trusted: log entry payload exceeds 255 bytes")
	}
	c.scratch[4], c.scratch[5] = kind, uint8(len(payload))
	c.beginEntry(2 + len(payload))
	c.h.Write(payload)
	c.endEntry()
}

// beginEntry restarts the hasher at the current top when this is the
// batch's first entry, then writes the entry's length prefix (entry
// boundaries must be unambiguous inside the hash input — see
// cryptolite.ChainExtend) and, with it, the entry header the caller
// laid out behind it in scratch.
func (c *Chain) beginEntry(size int) {
	if c.pending == 0 {
		c.h.Reset()
		c.h.Write(c.top[:])
	}
	binary.BigEndian.PutUint32(c.scratch[0:4], uint32(size))
	c.h.Write(c.scratch[:])
}

func (c *Chain) endEntry() {
	c.pending++
	if c.pending >= c.batchSize {
		c.flushStream()
	}
}

// Flush forces any pending entries into the chain and returns the
// top. Called by MAKEAUTHENTICATOR so the authenticator always covers
// everything appended so far.
func (c *Chain) Flush() cryptolite.ChainHash {
	if c.pending > 0 {
		c.flushStream()
	}
	return c.top
}

// Top returns the current top hash without flushing. Pending entries
// are not yet covered.
func (c *Chain) Top() cryptolite.ChainHash { return c.top }

// Pending returns the number of unflushed entries.
func (c *Chain) Pending() int { return c.pending }

// Compressions returns the number of SHA-1 compressions the chain has
// run: each flush hashes a message of c.h.Len() bytes.
func (c *Chain) Compressions() uint64 { return c.compressions }

func (c *Chain) flushStream() {
	c.top = c.h.Sum()
	c.compressions += cryptolite.SHA1Blocks(c.h.Len())
	c.pending = 0
}
