package wire

import (
	"bytes"
	"testing"
	"unsafe"
)

// overlaps reports whether the capacities of a and b share a byte.
func overlaps(a, b []byte) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa < pb+uintptr(cap(b)) && pb < pa+uintptr(cap(a))
}

// TestSlabPayloadsAreDisjointAndExact: every payload is empty, holds
// exactly the capacity asked for, and shares no byte of its capacity
// with any other payload the slab handed out, across chunk boundaries
// and for every size the slab carves.
func TestSlabPayloadsAreDisjointAndExact(t *testing.T) {
	var s Slab
	var got [][]byte
	for i := 0; i < 400; i++ {
		n := []int{StateMsgSize, AuditResponseSize, 0, 1, slabMaxCarve, 7}[i%6]
		p := s.Payload(n)
		if len(p) != 0 || cap(p) != n {
			t.Fatalf("Payload(%d) = len %d cap %d, want len 0 cap %d", n, len(p), cap(p), n)
		}
		for j, q := range got {
			if overlaps(p, q) {
				t.Fatalf("payload %d (cap %d) overlaps payload %d (cap %d)", i, n, j, cap(q))
			}
		}
		got = append(got, p)
	}
}

// TestSlabAppendPastCapacityLeavesNeighbours: an append past a
// payload's capacity moves that payload and writes nothing of the
// payload carved after it.
func TestSlabAppendPastCapacityLeavesNeighbours(t *testing.T) {
	var s Slab
	a := append(s.Payload(4), 1, 2, 3, 4)
	b := append(s.Payload(4), 5, 6, 7, 8)
	if unsafe.SliceData(b) != (*byte)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(a)), 4)) {
		t.Fatal("the second payload is not carved right after the first; the test checks nothing")
	}
	grown := append(a, 9, 9, 9)
	if overlaps(grown, b) {
		t.Fatal("an append past capacity wrote into the chunk instead of reallocating")
	}
	if !bytes.Equal(b, []byte{5, 6, 7, 8}) || !bytes.Equal(a, []byte{1, 2, 3, 4}) {
		t.Fatalf("neighbouring payloads changed: a %v, b %v", a, b)
	}
}

// TestSlabCarvesSmallPayloadsFromFewAllocations: small payloads share
// chunks, so 64 state messages cost a handful of allocations rather
// than 64; a payload over slabMaxCarve bytes costs exactly one of its
// own and takes nothing from the chunk.
func TestSlabCarvesSmallPayloadsFromFewAllocations(t *testing.T) {
	var s Slab
	m := StateMsg{Src: 3, Time: 9}
	s.Payload(1) // the first chunk
	small := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			m.AppendEncode(s.Payload(StateMsgSize))
		}
	})
	// At the chunk cap a chunk holds 9 messages: 64 need at most 8.
	if small > 8 {
		t.Errorf("64 state messages cost %.0f allocations, want at most 8", small)
	}
	before := len(s.chunk)
	big := testing.AllocsPerRun(100, func() {
		if p := s.Payload(slabMaxCarve + 1); cap(p) != slabMaxCarve+1 {
			t.Fatalf("oversize payload has cap %d", cap(p))
		}
	})
	if big != 1 {
		t.Errorf("an oversize payload costs %.0f allocations, want 1", big)
	}
	if len(s.chunk) != before {
		t.Errorf("an oversize payload took %d bytes from the chunk", len(s.chunk)-before)
	}
}

// TestSlabChunksAreFixedSize: every chunk the slab cuts, its first
// included, is slabChunk bytes, so a busy sender's chunk holds at most
// that much and a payload up to slabMaxCarve bytes always fits a fresh
// one.
func TestSlabChunksAreFixedSize(t *testing.T) {
	var s Slab
	chunks := 0
	for i := 0; i < 200; i++ {
		before := unsafe.SliceData(s.chunk)
		s.Payload([]int{StateMsgSize, slabMaxCarve, 1}[i%3])
		if unsafe.SliceData(s.chunk) != before {
			chunks++
			if cap(s.chunk) != slabChunk {
				t.Fatalf("chunk %d is %d B, want %d", chunks, cap(s.chunk), slabChunk)
			}
		}
	}
	if chunks < 2 {
		t.Fatalf("only %d chunks for 200 payloads", chunks)
	}

	var fresh Slab
	if p := append(fresh.Payload(slabMaxCarve), make([]byte, slabMaxCarve)...); cap(p) != slabMaxCarve {
		t.Fatalf("the largest carved payload has cap %d, want %d", cap(p), slabMaxCarve)
	}
}
