package radio

import (
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
// headers is FragmentFrame's error, not an oversize frame.
func oversize(size, mtu int) bool {
	chunk := mtu - wire.FrameHeaderSize - FragHeaderSize
	return size > mtu && chunk > 0 && (size+chunk-1)/chunk > maxFragments
}

// FragmentFrame splits a frame whose *encoding* exceeds mtu into
// fragments, each itself a frame whose payload is
// FragHeader ‖ chunk-of-original-encoding. Frames that already fit are
// returned unchanged. msgID must be unique per (transmitter, frame)
// within the reassembly horizon.
func FragmentFrame(f wire.Frame, mtu int, msgID uint16) []wire.Frame {
	enc := f.Encode()
	if mtu <= 0 || len(enc) <= mtu {
		return []wire.Frame{f}
	}
	chunk := mtu - wire.FrameHeaderSize - FragHeaderSize
	if chunk <= 0 {
		panic(fmt.Sprintf("radio: MTU %d cannot carry fragment headers", mtu))
	}
	total := (len(enc) + chunk - 1) / chunk
	if total > maxFragments {
		panic(fmt.Sprintf("radio: frame of %d bytes needs %d fragments (max %d)", len(enc), total, maxFragments))
	}
	frags := make([]wire.Frame, 0, total)
	for i := 0; i < total; i++ {
		lo := i * chunk
		hi := lo + chunk
		if hi > len(enc) {
			hi = len(enc)
		}
		w := wire.NewWriter(FragHeaderSize + hi - lo)
		w.U16(msgID)
		w.U8(uint8(i))
		w.U8(uint8(total))
		w.Raw(enc[lo:hi])
		frags = append(frags, wire.Frame{
			Src:     f.Src,
			Dst:     f.Dst,
			Flags:   f.Flags | wire.FlagFragment,
			Payload: w.Bytes(),
		})
	}
	return frags
}

type fragKey struct {
	from  wire.RobotID
	msgID uint16
}

type fragBuf struct {
	total    int
	received int
	chunks   [][]byte
	lastSeen wire.Tick
}

// Reassembler rebuilds frames from fragments, keyed by (physical
// transmitter, msgID). Incomplete buffers are discarded after Timeout
// ticks of silence (a lost fragment must not pin memory forever).
type Reassembler struct {
	Timeout wire.Tick
	bufs    map[fragKey]*fragBuf
}

// NewReassembler creates a reassembler; timeout 0 means never expire.
func NewReassembler(timeout wire.Tick) *Reassembler {
	return &Reassembler{Timeout: timeout, bufs: make(map[fragKey]*fragBuf)}
}

// Pending returns the number of incomplete frames buffered.
func (r *Reassembler) Pending() int { return len(r.bufs) }

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
	rd := wire.NewReader(f.Payload)
	msgID := rd.U16()
	idx := int(rd.U8())
	total := int(rd.U8())
	chunk := f.Payload[FragHeaderSize:]
	if total == 0 || idx >= total {
		return wire.Frame{}, false
	}
	key := fragKey{from: from, msgID: msgID}
	buf := r.bufs[key]
	if buf == nil {
		buf = &fragBuf{total: total, chunks: make([][]byte, total)}
		r.bufs[key] = buf
	}
	if buf.total != total {
		// Inconsistent claim (or msgID reuse): restart with the new
		// framing rather than mixing chunks.
		buf = &fragBuf{total: total, chunks: make([][]byte, total)}
		r.bufs[key] = buf
	}
	buf.lastSeen = now
	if buf.chunks[idx] == nil {
		// Copy into a non-nil slice even when the chunk is empty (a
		// malformed zero-payload fragment): nil strictly means "slot not
		// received", both for the duplicate check above and for the
		// snapshot codec's presence bits.
		buf.chunks[idx] = append([]byte{}, chunk...)
		buf.received++
	}
	if buf.received < buf.total {
		return wire.Frame{}, false
	}
	delete(r.bufs, key)
	var enc []byte
	for _, c := range buf.chunks {
		enc = append(enc, c...)
	}
	orig, err := wire.DecodeFrame(enc)
	if err != nil {
		return wire.Frame{}, false
	}
	return orig, true
}

// Expire drops incomplete buffers not touched within Timeout.
func (r *Reassembler) Expire(now wire.Tick) {
	if r.Timeout == 0 {
		return
	}
	for key, buf := range r.bufs {
		if buf.lastSeen+r.Timeout <= now {
			delete(r.bufs, key)
		}
	}
}
