package trusted

import (
	"math/rand"
	"testing"

	"roborebound/internal/cryptolite"
	"roborebound/internal/wire"
)

// TestChainAppendDoesNotAllocate pins the tentpole's allocation
// contract: the streaming chain hashes entries in place — no buffered
// copy of the payload, no per-append heap work — on both Append and
// AppendEntry, including the flush at each batch boundary.
func TestChainAppendDoesNotAllocate(t *testing.T) {
	c := NewChain(4)
	entry := make([]byte, 32)
	payload := make([]byte, 64)
	allocs := testing.AllocsPerRun(500, func() {
		c.Append(entry)
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
		c.buf = c.buf[:0]
	}
	return c.top
}

// TestChainStreamingMatchesBuffered is the chain differential: across
// batch sizes, entry mixes, interleaved flushes and mid-batch
// repositioning, the streaming chain's top must equal the batch model's
// at every observation point.
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
				ref = &batchChain{top: top, batch: batch}
			}
			switch rng.Intn(4) {
			case 0:
				b := make([]byte, rng.Intn(80))
				rng.Read(b)
				fast.Append(b)
				ref.Append(b)
			case 1:
				kind := uint8(rng.Intn(7) + 1)
				b := make([]byte, rng.Intn(120))
				rng.Read(b)
				fast.AppendEntry(kind, b)
				ref.AppendEntry(kind, b)
			case 2:
				if fast.Flush() != ref.Flush() {
					t.Fatalf("batch=%d step=%d: flush tops diverge", batch, step)
				}
			case 3:
				if fast.Pending() != len(ref.buf) {
					t.Fatalf("batch=%d step=%d: pending counts diverge", batch, step)
				}
			}
			if fast.Top() != ref.top {
				t.Fatalf("batch=%d step=%d: tops diverge", batch, step)
			}
		}
		if fast.Flush() != ref.Flush() {
			t.Fatalf("batch=%d: final tops diverge", batch)
		}
	}
}
