package radio

import (
	"errors"
	"sort"

	"roborebound/internal/wire"
)

// Snapshot codec for the wireless medium. Dynamic state is the
// in-flight queue, the transmit sequence counter, per-robot byte
// counters, per-sender fragment msgID counters, reassembly buffers,
// the delivery-round clock, and the loss-model RNG stream. Parameters,
// position callback, fault hooks, observability, and all per-round
// scratch come from rebuilding the run.
//
// deliverTick is serialized explicitly rather than derived from the
// engine clock: Deliver early-returns without advancing it when the
// queue is empty, so it lags the engine tick by a run-dependent amount
// — deriving it would silently shift reassembly expiry and trace
// stamps after a resume.

// EncodeState serializes the medium as an opaque blob.
func (m *Medium) EncodeState() []byte {
	w := wire.NewWriter(256)
	w.U32(uint32(len(m.queue)))
	for i := range m.queue {
		q := &m.queue[i]
		w.Blob(q.frame.Encode())
		w.U16(uint16(q.from))
		w.U64(q.seq)
		w.U64(uint64(q.readyAt))
	}
	w.U64(m.seq)

	ids := make([]wire.RobotID, 0, len(m.counters))
	for id := range m.counters {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.U32(uint32(len(ids)))
	for _, id := range ids {
		c := m.counters[id]
		w.U16(uint16(id))
		w.U64(c.TxApp)
		w.U64(c.TxAudit)
		w.U64(c.RxApp)
		w.U64(c.RxAudit)
		w.U64(c.TxFrames)
		w.U64(c.RxFrames)
		w.U64(c.Dropped)
	}

	ids = ids[:0]
	for id := range m.senders {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.U32(uint32(len(ids)))
	for _, id := range ids {
		w.U16(uint16(id))
		w.U16(m.senders[id].nextMsgID)
	}

	ids = ids[:0]
	for id := range m.reassemblers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.U32(uint32(len(ids)))
	for _, id := range ids {
		w.U16(uint16(id))
		m.reassemblers[id].encodeState(w)
	}

	w.U64(uint64(m.deliverTick))
	for _, s := range m.rng.State() {
		w.U64(s)
	}
	return w.Bytes()
}

// RestoreState applies a blob from EncodeState onto a structurally
// identical rebuilt medium (same params, hooks, and observability).
// Byte counters are created through Counters so their metrics gauges
// register exactly as the live path registers them.
func (m *Medium) RestoreState(b []byte) error {
	r := wire.NewReader(b)
	nQueue := int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	// Each queued frame is at least 4+FrameHeaderSize+18 bytes encoded.
	if nQueue > r.Remaining()/(4+wire.FrameHeaderSize+18) {
		return errors.New("radio: snapshot queue count exceeds payload")
	}
	queue := make([]queuedFrame, 0, nQueue)
	prevSeq := int64(-1)
	for i := 0; i < nQueue; i++ {
		frame, err := wire.DecodeFrame(r.Blob())
		if r.Err() != nil {
			return r.Err()
		}
		if err != nil {
			return err
		}
		from := wire.RobotID(r.U16())
		seq := r.U64()
		readyAt := wire.Tick(r.U64())
		if int64(seq) <= prevSeq {
			return errors.New("radio: snapshot queue not ascending in transmit sequence")
		}
		prevSeq = int64(seq)
		queue = append(queue, queuedFrame{
			frame: frame, from: from, seq: seq,
			size: frame.EncodedSize(), readyAt: readyAt,
		})
	}
	seq := r.U64()
	if prevSeq >= 0 && uint64(prevSeq) >= seq {
		return errors.New("radio: snapshot sequence counter behind queued frames")
	}

	nCtr := int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	if nCtr > r.Remaining()/(2+7*8) {
		return errors.New("radio: snapshot counter count exceeds payload")
	}
	type ctrEntry struct {
		id wire.RobotID
		c  ByteCounters
	}
	ctrs := make([]ctrEntry, 0, nCtr)
	prev := -1
	for i := 0; i < nCtr; i++ {
		id := wire.RobotID(r.U16())
		c := ByteCounters{
			TxApp: r.U64(), TxAudit: r.U64(),
			RxApp: r.U64(), RxAudit: r.U64(),
			TxFrames: r.U64(), RxFrames: r.U64(), Dropped: r.U64(),
		}
		if int(id) <= prev {
			return errors.New("radio: snapshot counters not in canonical order")
		}
		prev = int(id)
		ctrs = append(ctrs, ctrEntry{id, c})
	}

	nSend := int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	if nSend > r.Remaining()/4 {
		return errors.New("radio: snapshot sender count exceeds payload")
	}
	type sendEntry struct {
		id        wire.RobotID
		nextMsgID uint16
	}
	sends := make([]sendEntry, 0, nSend)
	prev = -1
	for i := 0; i < nSend; i++ {
		id := wire.RobotID(r.U16())
		next := r.U16()
		if int(id) <= prev {
			return errors.New("radio: snapshot senders not in canonical order")
		}
		prev = int(id)
		sends = append(sends, sendEntry{id, next})
	}

	nReasm := int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	if nReasm > r.Remaining()/(2+12) {
		return errors.New("radio: snapshot reassembler count exceeds payload")
	}
	reassemblers := make(map[wire.RobotID]*Reassembler, nReasm)
	prev = -1
	for i := 0; i < nReasm; i++ {
		id := wire.RobotID(r.U16())
		if r.Err() != nil {
			return r.Err()
		}
		if int(id) <= prev {
			return errors.New("radio: snapshot reassemblers not in canonical order")
		}
		prev = int(id)
		reasm, err := decodeReassembler(r)
		if err != nil {
			return err
		}
		reassemblers[id] = reasm
	}

	deliverTick := wire.Tick(r.U64())
	var rngState [4]uint64
	for i := range rngState {
		rngState[i] = r.U64()
	}
	if err := r.Done(); err != nil {
		return err
	}
	if err := m.rng.SetState(rngState); err != nil {
		return err
	}
	m.queue = queue
	m.seq = seq
	for _, e := range ctrs {
		*m.Counters(e.id) = e.c
	}
	for _, e := range sends {
		m.sender(e.id).nextMsgID = e.nextMsgID
	}
	m.reassemblers = reassemblers
	m.deliverTick = deliverTick
	return nil
}

// encodeState appends the reassembler's buffers in canonical
// (transmitter, msgID) order. Nil chunk slots (fragments not yet
// received) are encoded as presence bits so sparse buffers round-trip
// exactly.
func (re *Reassembler) encodeState(w *wire.Writer) {
	w.U64(uint64(re.Timeout))
	keys := make([]fragKey, 0, len(re.bufs))
	for k := range re.bufs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].msgID < keys[j].msgID
	})
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		buf := re.bufs[k]
		w.U16(uint16(k.from))
		w.U16(k.msgID)
		w.U8(uint8(buf.total))
		w.U64(uint64(buf.lastSeen))
		for _, c := range buf.chunks {
			if c == nil {
				w.U8(0)
				continue
			}
			w.U8(1)
			w.Blob(c)
		}
	}
}

func decodeReassembler(r *wire.Reader) (*Reassembler, error) {
	timeout := wire.Tick(r.U64())
	n := int(r.U32())
	if r.Err() != nil {
		return nil, r.Err()
	}
	// Each buffer record is at least 14 bytes.
	if n > r.Remaining()/14 {
		return nil, errors.New("radio: snapshot reassembly buffer count exceeds payload")
	}
	re := NewReassembler(timeout)
	prevFrom, prevMsg := -1, -1
	for i := 0; i < n; i++ {
		from := wire.RobotID(r.U16())
		msgID := r.U16()
		total := int(r.U8())
		lastSeen := wire.Tick(r.U64())
		if r.Err() != nil {
			return nil, r.Err()
		}
		if int(from) < prevFrom || (int(from) == prevFrom && int(msgID) <= prevMsg) {
			return nil, errors.New("radio: snapshot reassembly buffers not in canonical order")
		}
		prevFrom, prevMsg = int(from), int(msgID)
		if total == 0 {
			return nil, errors.New("radio: snapshot reassembly buffer with zero fragments")
		}
		buf := &fragBuf{total: total, chunks: make([][]byte, total), lastSeen: lastSeen}
		for j := 0; j < total; j++ {
			present := r.U8()
			if r.Err() != nil {
				return nil, r.Err()
			}
			switch present {
			case 0:
			case 1:
				buf.chunks[j] = append([]byte{}, r.Blob()...)
				if r.Err() != nil {
					return nil, r.Err()
				}
				buf.received++
			default:
				return nil, errors.New("radio: snapshot chunk presence flag out of range")
			}
		}
		if buf.received == 0 || buf.received >= total {
			return nil, errors.New("radio: snapshot reassembly buffer not incomplete")
		}
		re.bufs[fragKey{from: from, msgID: msgID}] = buf
	}
	return re, nil
}
