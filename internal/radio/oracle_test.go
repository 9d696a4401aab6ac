package radio

import (
	"fmt"

	"roborebound/internal/wire"
)

// fragmentFrame is the fragmenter as a function of one frame: the frame
// itself when it fits mtu (or mtu is 0 or less), else the fragments
// Medium.Send enqueues for it.
func fragmentFrame(f wire.Frame, mtu int, msgID uint16) []wire.Frame {
	enc := f.Encode()
	if mtu <= 0 || len(enc) <= mtu {
		return []wire.Frame{f}
	}
	cut := newFragmenter(f, mtu, msgID)
	frags := make([]wire.Frame, cut.total)
	for i := range frags {
		frags[i] = cut.next()
	}
	return frags
}

// The fragmenter and reassembler as they were before a fragmented frame
// was cut into one buffer and reassembled into one, kept as oracles:
// FuzzFragmentRoundTrip holds newFragmenter's output to oracleFragmentFrame
// byte for byte, and FuzzReassembler holds Reassembler to
// oracleReassembler fragment by fragment.

// oracleFragmentFrame builds each fragment's payload with a Writer of
// its own.
func oracleFragmentFrame(f wire.Frame, mtu int, msgID uint16) []wire.Frame {
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

// oracleReassembler copies each fragment's chunk on its own and
// concatenates the chunks into a growing buffer on completion.
type oracleReassembler struct {
	bufs map[fragKey]*oracleFragBuf
}

type oracleFragBuf struct {
	total    int
	received int
	chunks   [][]byte
	lastSeen wire.Tick
}

func newOracleReassembler() *oracleReassembler {
	return &oracleReassembler{bufs: make(map[fragKey]*oracleFragBuf)}
}

func (r *oracleReassembler) Pending() int { return len(r.bufs) }

func (r *oracleReassembler) Add(from wire.RobotID, f wire.Frame, now wire.Tick) (wire.Frame, bool) {
	if f.Flags&wire.FlagFragment == 0 {
		return f, true
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
	if buf == nil || buf.total != total {
		buf = &oracleFragBuf{total: total, chunks: make([][]byte, total)}
		r.bufs[key] = buf
	}
	buf.lastSeen = now
	if buf.chunks[idx] == nil {
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

func (r *oracleReassembler) Expire(now wire.Tick) {
	for key, buf := range r.bufs {
		if buf.lastSeen+reassemblyTimeout <= now {
			delete(r.bufs, key)
		}
	}
}
