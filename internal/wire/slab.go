package wire

// Slab hands out storage for small payloads a sender encodes and sends.
// Each Payload is a zero-length slice with exactly n bytes of capacity,
// carved from a chunk no other payload ever overlaps and that the slab
// never reuses: once carved, a payload belongs to its frame, and the
// slab only moves on past it. A sent payload is never written, reused,
// pooled or split (DESIGN.md, "Byte ownership on the data path"), so
// carving changes nothing for its readers; it lets N small payloads
// cost one allocation instead of N.
//
// Chunks are slabChunk bytes each, the first one too, so a busy sender
// pays one allocation per chunk and none for chunks on the way to that
// size. A payload over slabMaxCarve bytes gets an allocation of its
// own. A chunk stays reachable while any payload carved from it is, so
// its size bounds what one live payload can hold on to. The zero Slab
// is ready to use; each sender keeps its own. A Slab must not be copied
// after first use (the copy would carve the same bytes again), and it
// is not safe for concurrent use.
type Slab struct {
	// chunk is the current chunk: carved up to its length, free from
	// there to its capacity.
	chunk []byte
}

const (
	slabChunk    = 256
	slabMaxCarve = slabChunk / 4
)

// Payload returns a zero-length slice with capacity exactly n, for the
// caller to append one payload's encoding into. An append past n
// reallocates and leaves every other payload as it was.
func (s *Slab) Payload(n int) []byte {
	if n > slabMaxCarve {
		return make([]byte, 0, n)
	}
	used := len(s.chunk)
	if cap(s.chunk)-used < n {
		s.chunk, used = make([]byte, 0, slabChunk), 0
	}
	s.chunk = s.chunk[:used+n]
	return s.chunk[used : used : used+n]
}
