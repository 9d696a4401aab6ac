package wire

import (
	"errors"
	"testing"
)

func TestCountRefusesAHostileCount(t *testing.T) {
	b := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}
	r := NewReader(b)
	if n := r.Count(1); n != 0 || !errors.Is(r.Err(), ErrCount) {
		t.Fatalf("Count on 0xFFFFFFFF = %d, err %v; want 0, ErrCount", n, r.Err())
	}
	if allocs := testing.AllocsPerRun(100, func() {
		r := NewReader(b)
		r.Count(1)
	}); allocs != 0 {
		t.Errorf("Count allocates %.0f times per call, want 0", allocs)
	}

	// A count the bytes left hold at size bytes a record is read as is.
	r = NewReader([]byte{0, 0, 0, 2, 1, 2, 3, 4})
	if n := r.Count(2); n != 2 || r.Err() != nil {
		t.Fatalf("Count(2) over 4 bytes = %d, err %v; want 2, nil", n, r.Err())
	}
	r = NewReader([]byte{0, 0, 0, 2, 1, 2, 3})
	if n := r.Count(2); n != 0 || !errors.Is(r.Err(), ErrCount) {
		t.Fatalf("Count(2) over 3 bytes = %d, err %v; want 0, ErrCount", n, r.Err())
	}
}

func TestBoolAndFlagsRefuseUndefinedBits(t *testing.T) {
	r := NewReader([]byte{0, 1, 2})
	if r.Bool() || !r.Bool() || r.Err() != nil {
		t.Fatalf("Bool on 0, 1: err %v", r.Err())
	}
	if r.Bool() || !errors.Is(r.Err(), ErrFlags) {
		t.Fatalf("Bool on 2: err %v, want ErrFlags", r.Err())
	}
	r = NewReader([]byte{3, 4})
	if f := r.Flags(3); f != 3 || r.Err() != nil {
		t.Fatalf("Flags(3) on 3 = %d, err %v", f, r.Err())
	}
	if f := r.Flags(3); f != 0 || !errors.Is(r.Err(), ErrFlags) {
		t.Fatalf("Flags(3) on 4 = %d, err %v; want 0, ErrFlags", f, r.Err())
	}
}

func TestNextIDRefusesIDsOutOfOrder(t *testing.T) {
	r := NewReader([]byte{0, 0, 0, 5})
	prev := -1
	if a, b := r.NextID(&prev), r.NextID(&prev); a != 0 || b != 5 || r.Err() != nil {
		t.Fatalf("NextID on 0, 5 = %d, %d, err %v", a, b, r.Err())
	}
	for _, ids := range [][]byte{{0, 5, 0, 5}, {0, 5, 0, 4}} {
		r, prev := NewReader(ids), -1
		r.NextID(&prev)
		r.NextID(&prev)
		if !errors.Is(r.Err(), ErrOrder) {
			t.Errorf("NextID on % x: err %v, want ErrOrder", ids, r.Err())
		}
	}
}

func TestAFailedReaderReadsZeroAndKeepsItsFirstError(t *testing.T) {
	r := NewReader([]byte{2, 0xAB, 0xCD, 0xEF, 0x01, 0x23, 0x45, 0x67, 0x89, 9, 9, 9, 9})
	r.Bool()
	r.Fail(errors.New("later"))
	r.Fail(nil)
	if v := r.U8(); v != 0 {
		t.Errorf("U8 after a failure = %d, want 0", v)
	}
	if v := r.U16(); v != 0 {
		t.Errorf("U16 after a failure = %d, want 0", v)
	}
	if v := r.U64(); v != 0 {
		t.Errorf("U64 after a failure = %d, want 0", v)
	}
	if v := r.Blob(); v != nil {
		t.Errorf("Blob after a failure = %x, want nil", v)
	}
	if n := r.Count(1); n != 0 {
		t.Errorf("Count after a failure = %d, want 0", n)
	}
	prev := -1
	if id := r.NextID(&prev); id != 0 {
		t.Errorf("NextID after a failure = %d, want 0", id)
	}
	if err := r.Done(); !errors.Is(err, ErrFlags) {
		t.Errorf("Done = %v, want the first error, ErrFlags", err)
	}
}

func TestSortedIDsAscend(t *testing.T) {
	ids := SortedIDs(map[RobotID]bool{9: true, 2: true, 40: true, 0: true})
	for i, want := range []RobotID{0, 2, 9, 40} {
		if ids[i] != want {
			t.Fatalf("SortedIDs = %v, want [0 2 9 40]", ids)
		}
	}
}

func TestWriterBoolWritesOneOrZero(t *testing.T) {
	var w Writer
	w.Bool(true)
	w.Bool(false)
	if got := w.Bytes(); len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Errorf("Writer.Bool(true), Bool(false) = % x, want 01 00", got)
	}
}
