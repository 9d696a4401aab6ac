// Package wire defines the binary wire format for every message the
// MRS exchanges and every record the c-node logs. Sizes matter here:
// the paper's bandwidth and storage results (Figs. 6–7) are stated in
// bytes of exactly these messages — 27 B state broadcasts, 34 B sensor
// log entries, 26 B actuator log entries, ≈40 B tokens — and this
// package reproduces those layouts.
//
// All integers are big-endian. Own-pose quantities (sensor readings,
// actuator commands, checkpoints) use float64 so that checkpoint →
// replay round-trips are bit-exact; over-the-air state uses float32,
// as radio bandwidth is the scarce resource.
package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"sort"
)

// ErrTruncated is returned when a decode runs out of bytes.
var ErrTruncated = errors.New("wire: truncated message")

// ErrBadKind is returned when a decode sees an unexpected message kind.
var ErrBadKind = errors.New("wire: unexpected message kind")

// ErrCount is returned when a record count is larger than the bytes
// left could hold.
var ErrCount = errors.New("wire: count exceeds payload")

// ErrFlags is returned when a flag byte has a bit its field does not
// define.
var ErrFlags = errors.New("wire: flag byte out of range")

// ErrOrder is returned when robot IDs that must ascend do not.
var ErrOrder = errors.New("wire: robot IDs not in ascending order")

// Writer serializes primitives into a growing buffer.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with capacity preallocated.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Bytes returns the accumulated encoding.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// U8 appends a byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 appends a big-endian uint16.
func (w *Writer) U16(v uint16) {
	w.buf = binary.BigEndian.AppendUint16(w.buf, v)
}

// U32 appends a big-endian uint32.
func (w *Writer) U32(v uint32) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
}

// U64 appends a big-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}

// F32 appends a float32 (IEEE-754 bits, big-endian).
func (w *Writer) F32(v float32) { w.U32(math.Float32bits(v)) }

// F64 appends a float64 (IEEE-754 bits, big-endian).
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool appends a byte, 1 for true and 0 for false.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Raw appends bytes verbatim (no length prefix).
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Blob appends a 32-bit length prefix followed by the bytes.
func (w *Writer) Blob(b []byte) {
	w.U32(uint32(len(b)))
	w.Raw(b)
}

// Reader deserializes primitives from a buffer, accumulating the first
// error so call sites can decode a whole struct and check once: after
// a failure every read returns zero. Besides the primitives it owns
// the three rules a decoder of hostile bytes needs — Count bounds a
// record count by the bytes left, Flags and Bool refuse undefined bits,
// and NextID refuses IDs out of order — so a decoder reads its fields
// straight through and checks Done once.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps b for decoding.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records err as the reader's error unless an earlier one is
// already recorded; a nil err is ignored.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Done returns nil if the buffer was consumed exactly, an error
// otherwise (trailing garbage is treated as a malformed message: a
// compromised robot must not be able to smuggle bytes past the MAC'd
// prefix of a message).
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return errors.New("wire: trailing bytes after message")
	}
	return nil
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.Remaining() < n {
		r.err = ErrTruncated
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads a byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// F32 reads a float32.
func (r *Reader) F32() float32 { return math.Float32frombits(r.U32()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Raw reads exactly n bytes (returned slice aliases the input).
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// Blob reads a 32-bit length prefix and that many bytes. The length is
// bounded by the remaining buffer, so a hostile length cannot cause an
// allocation blowup.
func (r *Reader) Blob() []byte {
	n := int(r.U32())
	if r.err == nil && n > r.Remaining() {
		r.err = ErrTruncated
		return nil
	}
	return r.take(n)
}

// Count reads a 32-bit record count for records of at least size
// bytes. A count the bytes left cannot hold fails the reader with
// ErrCount and reads as 0, so a hostile count cannot size an
// allocation.
func (r *Reader) Count(size int) int {
	n := uint64(r.U32())
	if n*uint64(size) > uint64(r.Remaining()) {
		r.Fail(ErrCount)
		return 0
	}
	return int(n)
}

// Flags reads a flag byte; a bit outside mask fails the reader with
// ErrFlags and reads as 0.
func (r *Reader) Flags(mask uint8) uint8 {
	f := r.U8()
	if f&^mask != 0 {
		r.Fail(ErrFlags)
		return 0
	}
	return f
}

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool() bool { return r.Flags(1) == 1 }

// NextID reads a robot ID that must be above *prev, the previous ID
// read (start it at -1), and advances *prev. An ID at or below it
// fails the reader with ErrOrder.
func (r *Reader) NextID(prev *int) RobotID {
	id := RobotID(r.U16())
	if int(id) <= *prev {
		r.Fail(ErrOrder)
	}
	*prev = int(id)
	return id
}

// SortedIDs returns m's keys in ascending order, the order every
// ID-keyed map is written in.
func SortedIDs[V any](m map[RobotID]V) []RobotID {
	ids := make([]RobotID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
