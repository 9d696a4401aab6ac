// Package snapfix exercises the snapshotstate analyzer: codec field
// coverage (including reachability through slices, maps, and helper
// functions) and decoder count bounds.
package snapfix

import (
	"errors"

	"roborebound/internal/wire"
)

// Box has a full EncodeState/RestoreState pair, so every field — and
// every field of the structs its fields reach — must be referenced by
// the codec closure or carry a snapshot-skip directive.
type Box struct {
	now    wire.Tick
	items  []item
	lookup map[wire.RobotID]uint64
	ghost  int // want `field Box.ghost is not referenced by the package's snapshot codec`
	// scratch is rebuilt empty on restore.
	scratch []byte //rebound:snapshot-skip per-delivery scratch, rebuilt empty
	bare    []byte /* want `requires a justification` */ //rebound:snapshot-skip
}

// item is reachable from Box.items, so it is tracked too.
type item struct {
	id  wire.RobotID
	val uint64
	pad uint32 // want `field item.pad is not referenced by the package's snapshot codec`
}

// loose has no codec pair and is not reachable from one: its fields
// are nobody's business.
type loose struct {
	whatever int
}

func (b *Box) EncodeState() []byte {
	w := wire.NewWriter(64)
	w.U64(uint64(b.now))
	w.U32(uint32(len(b.items)))
	for i := range b.items {
		encodeItem(w, &b.items[i])
	}
	w.U32(uint32(len(b.lookup)))
	return w.Bytes()
}

// encodeItem is in the codec's call closure: its references count as
// coverage.
func encodeItem(w *wire.Writer, it *item) {
	w.U16(uint16(it.id))
	w.U64(it.val)
}

func (b *Box) RestoreState(data []byte) error {
	r := wire.NewReader(data)
	b.now = wire.Tick(r.U64())
	n := r.Count(10)
	b.items = make([]item, 0, n) // sized through Count: clean
	for i := 0; i < n; i++ {
		b.items = append(b.items, item{id: wire.RobotID(r.U16()), val: r.U64()})
	}
	nl := int(r.U32())
	if nl > r.Remaining()/10 {
		return errors.New("snapfix: lookup count exceeds payload")
	}
	b.lookup = make(map[wire.RobotID]uint64, nl) // want `decoder count nl sizes an allocation`
	for i := 0; i < nl; i++ {
		b.lookup[wire.RobotID(r.U16())] = r.U64()
	}
	return r.Done()
}

// decodeSide is not part of any codec pair, but the count rule applies
// to every reader client in the package, to reads used in place too.
func decodeSide(r *wire.Reader) ([]uint64, []byte) {
	out := make([]uint64, 0, int(r.U16())) // want `decoder count int\(r.U16\(\)\) sizes an allocation`
	small := int(r.U8())                   // U8 counts cannot exceed 255: exempt
	pad := make([]byte, small)
	return out, pad
}

var _ = decodeSide
var _ = loose{}
