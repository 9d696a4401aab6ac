package radio

import (
	"encoding/binary"
	"fmt"

	"roborebound/internal/wire"
)

// Fragmentation (Appendix B). The SecBot's RFM69HCW radio has a
// 66-byte FIFO, so any frame larger than the radio MTU — audit
// requests easily reach kilobytes — is split into fragments and
// reassembled by the receiver. A lost fragment loses the whole frame,
// which is exactly how the loss model should bite large transfers.

// FragHeaderSize is the per-fragment header: msgID (2) ‖ index (1) ‖
// total (1).
const FragHeaderSize = 4

// maxFragments is the most fragments one frame can travel in: a
// fragment header numbers them in one byte.
const maxFragments = 255

// oversize reports whether a frame of size encoded bytes needs more
// than maxFragments fragments at mtu. An MTU too small to carry the
// headers is newFragmenter's error, not an oversize frame.
func oversize(size, mtu int) bool {
	chunk := mtu - wire.FrameHeaderSize - FragHeaderSize
	return size > mtu && chunk > 0 && (size+chunk-1)/chunk > maxFragments
}

// fragmenter cuts a frame whose encoding does not fit the MTU into the
// fragments that carry it, each itself a frame whose payload is
// FragHeader ‖ chunk-of-encoding. The frame is encoded once, into the
// tail of one buffer of exactly the bytes all the fragments' payloads
// need, and next cuts the fragments from it in order, in place: each
// payload is written below the chunk it carries and ends no later than
// the next chunk begins, so no byte is overwritten before it is cut and
// no payload is written once it has been handed out. Each payload is
// capped at its own length, so none reaches into the next.
type fragmenter struct {
	frame        wire.Frame // every fragment's addressing and flags
	buf          []byte     // the cut payloads, then the encoding's rest
	enc          int        // where in buf the next chunk begins
	chunk, total int
	i            int // the next fragment's index
	msgID        uint16
}

// newFragmenter prepares f's fragments at mtu. msgID must be unique per
// (transmitter, frame) within the reassembly horizon. An MTU with no
// room for a payload byte after both headers, or a frame that needs
// more than maxFragments fragments, panics.
func newFragmenter(f wire.Frame, mtu int, msgID uint16) fragmenter {
	size := f.EncodedSize()
	chunk := mtu - wire.FrameHeaderSize - FragHeaderSize
	if chunk <= 0 {
		panic(fmt.Sprintf("radio: MTU %d cannot carry fragment headers", mtu))
	}
	total := (size + chunk - 1) / chunk
	if total > maxFragments {
		panic(fmt.Sprintf("radio: frame of %d bytes needs %d fragments (max %d)", size, total, maxFragments))
	}
	headers := total * FragHeaderSize
	return fragmenter{
		frame: wire.Frame{Src: f.Src, Dst: f.Dst, Flags: f.Flags | wire.FlagFragment},
		buf:   f.AppendEncode(make([]byte, headers, headers+size)),
		enc:   headers, chunk: chunk, total: total, msgID: msgID,
	}
}

// next cuts the next fragment: fragment i's payload starts at
// i·(FragHeaderSize+chunk), below chunk i at headers+i·chunk.
func (c *fragmenter) next() wire.Frame {
	n := min(c.chunk, len(c.buf)-c.enc)
	lo := c.i * (FragHeaderSize + c.chunk)
	p := c.buf[lo : lo+FragHeaderSize+n : lo+FragHeaderSize+n]
	copy(p[FragHeaderSize:], c.buf[c.enc:c.enc+n])
	binary.BigEndian.PutUint16(p, c.msgID)
	p[2], p[3] = uint8(c.i), uint8(c.total)
	c.enc += n
	c.i++
	fr := c.frame
	fr.Payload = p
	return fr
}

type fragKey struct {
	from  wire.RobotID
	msgID uint16
}

// fragBuf is one in-flight frame. Its chunks are copied into data in
// the order they arrive, and spans locates each index's chunk there;
// when they arrived in index order, data is the frame's encoding and is
// decoded in place.
type fragBuf struct {
	total    int
	received int
	lastSeen wire.Tick
	data     []byte
	spans    []fragSpan
}

// fragSpan is where one fragment index's chunk lies in fragBuf.data;
// ok is false until that fragment has arrived.
type fragSpan struct {
	off, n int32
	ok     bool
}

// chunk returns fragment i's chunk, nil while it has not arrived.
func (b *fragBuf) chunk(i int) []byte {
	sp := b.spans[i]
	if !sp.ok {
		return nil
	}
	return b.data[sp.off : sp.off+sp.n]
}

// add copies fragment idx's chunk into the buffer unless that index has
// already arrived.
func (b *fragBuf) add(idx int, chunk []byte) {
	if b.spans[idx].ok {
		return
	}
	b.spans[idx] = fragSpan{off: int32(len(b.data)), n: int32(len(chunk)), ok: true}
	b.data = append(b.data, chunk...)
	b.received++
}

// encoding returns the complete frame's encoding: data itself when the
// chunks arrived in index order, else a copy of them put in order.
func (b *fragBuf) encoding() (enc []byte, inPlace bool) {
	off := int32(0)
	for _, sp := range b.spans {
		if sp.off != off {
			enc = make([]byte, 0, len(b.data))
			for i := range b.spans {
				enc = append(enc, b.chunk(i)...)
			}
			return enc, false
		}
		off += sp.n
	}
	return b.data, true
}

// reassemblyTimeout is how many delivery rounds of silence discard an
// incomplete buffer (a lost fragment must not pin memory forever). It
// is generous: a frame's fragments all arrive in the same delivery
// round, so a handful of rounds is plenty.
const reassemblyTimeout wire.Tick = 16

// Reassembler rebuilds frames from fragments, keyed by (physical
// transmitter, msgID). Incomplete buffers are discarded after
// reassemblyTimeout rounds of silence.
//
// Each in-flight frame copies its chunks into one buffer. When fragment
// 0 arrives first, the buffer is made at once the size its frame header
// states, capped at what the frame's fragments could carry; a frame
// whose fragments arrive in another order grows its buffer as they do,
// so a stray fragment reserves little more than its own chunk. A frame
// whose fragments arrived in order — the medium delivers a frame's
// fragments in one round, in transmit order — is decoded straight out
// of that buffer, which the returned frame then owns; so a complete
// frame costs its receiver one allocation. A completed or restarted
// frame's span table, and its buffer unless the returned frame took it,
// are kept for the next frame.
type Reassembler struct {
	bufs map[fragKey]*fragBuf

	spare []*fragBuf //rebound:snapshot-skip recycled buffers of frames no longer in flight
}

// NewReassembler creates a reassembler.
func NewReassembler() *Reassembler {
	return &Reassembler{bufs: make(map[fragKey]*fragBuf)}
}

// Pending returns the number of incomplete frames buffered.
func (r *Reassembler) Pending() int { return len(r.bufs) }

// newBuf returns an empty buffer for a frame of total fragments whose
// first arrival is fragment idx carrying chunk, from the spares when
// there is one.
func (r *Reassembler) newBuf(total, idx int, chunk []byte) *fragBuf {
	var b *fragBuf
	if n := len(r.spare); n > 0 {
		b, r.spare = r.spare[n-1], r.spare[:n-1]
	} else {
		b = &fragBuf{}
	}
	b.total = total
	if cap(b.spans) < total {
		b.spans = make([]fragSpan, total)
	}
	b.spans = b.spans[:total]
	if idx == 0 && len(chunk) >= wire.FrameHeaderSize {
		// The chunk starts with the frame header, whose last two bytes
		// are the payload length.
		size := wire.FrameHeaderSize + int(binary.BigEndian.Uint16(chunk[wire.FrameHeaderSize-2:]))
		if want := min(size, total*len(chunk)); cap(b.data) < want {
			b.data = make([]byte, 0, want)
		}
	}
	return b
}

// release returns b to the spares. escaped says its data now belongs
// to a returned frame and must not be written again.
func (r *Reassembler) release(b *fragBuf, escaped bool) {
	clear(b.spans)
	b.received = 0
	b.data = b.data[:0]
	if escaped {
		b.data = nil
	}
	r.spare = append(r.spare, b)
}

// Add ingests one fragment from the given physical transmitter. When
// the fragment completes a frame, the reassembled original frame is
// returned. Malformed or inconsistent fragments are dropped.
func (r *Reassembler) Add(from wire.RobotID, f wire.Frame, now wire.Tick) (wire.Frame, bool) {
	if f.Flags&wire.FlagFragment == 0 {
		return f, true // not fragmented
	}
	if len(f.Payload) < FragHeaderSize {
		return wire.Frame{}, false
	}
	msgID := binary.BigEndian.Uint16(f.Payload)
	idx, total := int(f.Payload[2]), int(f.Payload[3])
	chunk := f.Payload[FragHeaderSize:]
	if total == 0 || idx >= total {
		return wire.Frame{}, false
	}
	key := fragKey{from: from, msgID: msgID}
	buf := r.bufs[key]
	if buf != nil && buf.total != total {
		// Inconsistent claim (or msgID reuse): restart with the new
		// framing rather than mixing chunks.
		r.release(buf, false)
		buf = nil
	}
	if buf == nil {
		buf = r.newBuf(total, idx, chunk)
		r.bufs[key] = buf
	}
	buf.lastSeen = now
	buf.add(idx, chunk)
	if buf.received < buf.total {
		return wire.Frame{}, false
	}
	delete(r.bufs, key)
	enc, inPlace := buf.encoding()
	orig, err := wire.DecodeFrame(enc)
	r.release(buf, inPlace && err == nil)
	if err != nil {
		return wire.Frame{}, false
	}
	return orig, true
}

// Expire drops incomplete buffers not touched within reassemblyTimeout.
// They are not kept as spares: the map's order would decide which spare
// the next frame gets, and with it the run's allocation count.
func (r *Reassembler) Expire(now wire.Tick) {
	for key, buf := range r.bufs {
		if buf.lastSeen+reassemblyTimeout <= now {
			delete(r.bufs, key)
		}
	}
}
