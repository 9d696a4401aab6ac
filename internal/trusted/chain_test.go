package trusted

import (
	"math/rand"
	"testing"

	"roborebound/internal/cryptolite"
	"roborebound/internal/wire"
)

// TestChainAppendDoesNotAllocate pins the tentpole's allocation
// contract: the streaming chain hashes entries in place — no buffered
// copy of the payload, no per-append heap work — including the flush
// at each batch boundary.
func TestChainAppendDoesNotAllocate(t *testing.T) {
	c := NewChain(4)
	payload := make([]byte, 64)
	allocs := testing.AllocsPerRun(500, func() {
		c.AppendEntry(3, payload)
	})
	if allocs != 0 {
		t.Errorf("streaming append allocates %.1f objects per op, want 0", allocs)
	}
}

// batchChain is §3.8 as literally written, the model the streaming
// chain must match: entries are copied into a batch and the whole batch
// is hashed at the boundary by cryptolite.ChainExtend, the definition.
type batchChain struct {
	top   cryptolite.ChainHash
	batch int
	buf   [][]byte
	// compressions counts the SHA-1 blocks of each flushed message:
	// the top, then each entry behind its 4-byte length.
	compressions uint64
}

func (c *batchChain) Append(entry []byte) {
	c.buf = append(c.buf, append([]byte(nil), entry...))
	if len(c.buf) >= c.batch {
		c.Flush()
	}
}

func (c *batchChain) AppendEntry(kind uint8, payload []byte) {
	c.Append((&wire.LogEntry{Kind: kind, Payload: payload}).Encode())
}

func (c *batchChain) Flush() cryptolite.ChainHash {
	if len(c.buf) > 0 {
		c.top = cryptolite.ChainExtend(c.top, c.buf)
		n := len(c.top)
		for _, e := range c.buf {
			n += 4 + len(e)
		}
		c.compressions += cryptolite.SHA1Blocks(uint64(n))
		c.buf = c.buf[:0]
	}
	return c.top
}

// TestChainStreamingMatchesBuffered is the chain differential: across
// batch sizes, entry mixes, interleaved flushes and mid-batch
// repositioning, the streaming chain's top must equal the batch
// model's, which hashes each entry's wire encoding, at every
// observation point, and so must its count of SHA-1 compressions.
func TestChainStreamingMatchesBuffered(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, batch := range []int{1, 2, 3, 7, 16} {
		fast := NewChain(batch)
		ref := &batchChain{batch: batch}
		for step := 0; step < 300; step++ {
			if rng.Intn(40) == 0 {
				// A replica repositioned mid-batch (ResetAt) drops what
				// was pending and continues as a chain built at that top.
				var top cryptolite.ChainHash
				rng.Read(top[:])
				batch = 1 + rng.Intn(16)
				fast.ResetAt(top, batch)
				ref = &batchChain{top: top, batch: batch, compressions: ref.compressions}
			}
			switch rng.Intn(3) {
			case 0:
				kind := uint8(rng.Intn(7) + 1)
				b := make([]byte, rng.Intn(256))
				rng.Read(b)
				fast.AppendEntry(kind, b)
				ref.AppendEntry(kind, b)
			case 1:
				if fast.Flush() != ref.Flush() {
					t.Fatalf("batch=%d step=%d: flush tops diverge", batch, step)
				}
			case 2:
				if fast.Pending() != len(ref.buf) {
					t.Fatalf("batch=%d step=%d: pending counts diverge", batch, step)
				}
			}
			if fast.Top() != ref.top {
				t.Fatalf("batch=%d step=%d: tops diverge", batch, step)
			}
			if fast.Compressions() != ref.compressions {
				t.Fatalf("batch=%d step=%d: %d compressions, the batch model counts %d",
					batch, step, fast.Compressions(), ref.compressions)
			}
		}
		if fast.Flush() != ref.Flush() {
			t.Fatalf("batch=%d: final tops diverge", batch)
		}
	}
}
