package radio

import (
	"cmp"
	"errors"
	"slices"
	"sort"

	"roborebound/internal/wire"
)

// Snapshot codec for the wireless medium. Dynamic state is the
// in-flight queue, the transmit sequence counter, the stations, the
// delivery-round clock, and the loss-model RNG stream. The stations
// are written as three sections in ID order: byte counters for every
// station, the fragment msgID counter of every station that has sent,
// and the reassembly buffers of every station that has a reassembler.
// Parameters, position callback, fault hooks, observability, and all
// per-round scratch come from rebuilding the run.
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

	ids := wire.SortedIDs(m.stations)
	w.U32(uint32(len(ids)))
	senders, reassemblers := 0, 0
	for _, id := range ids {
		st := m.stations[id]
		w.U16(uint16(id))
		w.U64(st.TxApp)
		w.U64(st.TxAudit)
		w.U64(st.RxApp)
		w.U64(st.RxAudit)
		w.U64(st.TxFrames)
		w.U64(st.RxFrames)
		w.U64(st.Dropped)
		if st.sent {
			senders++
		}
		if st.reasm != nil {
			reassemblers++
		}
	}

	w.U32(uint32(senders))
	for _, id := range ids {
		if st := m.stations[id]; st.sent {
			w.U16(uint16(id))
			w.U16(st.nextMsgID)
		}
	}

	w.U32(uint32(reassemblers))
	for _, id := range ids {
		if st := m.stations[id]; st.reasm != nil {
			w.U16(uint16(id))
			st.reasm.encodeState(w)
		}
	}

	w.U64(uint64(m.deliverTick))
	for _, s := range m.rng.State() {
		w.U64(s)
	}
	return w.Bytes()
}

// RestoreState applies a blob from EncodeState onto a structurally
// identical rebuilt medium (same params, hooks, and observability).
// Stations are created through station so their metrics gauges
// register exactly as the live path registers them.
func (m *Medium) RestoreState(b []byte) error {
	r := wire.NewReader(b)
	// Each queued frame is at least 4+FrameHeaderSize+18 bytes encoded.
	queue := make([]queuedFrame, r.Count(4+wire.FrameHeaderSize+18))
	for i := range queue {
		frame, err := wire.DecodeFrame(r.Blob())
		r.Fail(err)
		q := queuedFrame{
			frame: frame, from: wire.RobotID(r.U16()), seq: r.U64(),
			size: frame.EncodedSize(), readyAt: wire.Tick(r.U64()),
		}
		if i > 0 && q.seq <= queue[i-1].seq {
			r.Fail(errors.New("radio: snapshot queue not ascending in transmit sequence"))
		}
		queue[i] = q
	}
	seq := r.U64()
	if len(queue) > 0 && queue[len(queue)-1].seq >= seq {
		r.Fail(errors.New("radio: snapshot sequence counter behind queued frames"))
	}

	type stationEntry struct {
		id wire.RobotID
		st station
	}
	entries := make([]stationEntry, r.Count(2+7*8))
	prev := -1
	for i := range entries {
		entries[i] = stationEntry{id: r.NextID(&prev), st: station{ByteCounters: ByteCounters{
			TxApp: r.U64(), TxAudit: r.U64(),
			RxApp: r.U64(), RxAudit: r.U64(),
			TxFrames: r.U64(), RxFrames: r.U64(), Dropped: r.U64(),
		}}}
	}
	// A sender or reassembler entry belongs to a station the counters
	// section lists: Send and delivery create a station's counters
	// first, so a valid snapshot has them, and a station made here
	// would register byte counters no run had.
	entry := func(id wire.RobotID) *station {
		i, ok := slices.BinarySearchFunc(entries, id, func(e stationEntry, id wire.RobotID) int {
			return cmp.Compare(e.id, id)
		})
		if !ok {
			r.Fail(errors.New("radio: snapshot station state for a robot without counters"))
			return &station{}
		}
		return &entries[i].st
	}

	prev = -1
	for i, n := 0, r.Count(4); i < n; i++ {
		st := entry(r.NextID(&prev))
		st.nextMsgID, st.sent = r.U16(), true
	}

	prev = -1
	for i, n := 0, r.Count(2+12); i < n; i++ {
		entry(r.NextID(&prev)).reasm = decodeReassembler(r)
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
	for _, e := range entries {
		*m.station(e.id) = e.st
	}
	m.deliverTick = deliverTick
	return nil
}

// encodeState appends the reassembler's buffers in canonical
// (transmitter, msgID) order. Each fragment index is encoded as a
// presence bit, then its chunk when present, so sparse buffers
// round-trip exactly; a restored buffer holds its chunks in index
// order, whatever order they first arrived in.
func (re *Reassembler) encodeState(w *wire.Writer) {
	w.U64(uint64(reassemblyTimeout))
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
		for i, sp := range buf.spans {
			w.Bool(sp.ok)
			if sp.ok {
				w.Blob(buf.chunk(i))
			}
		}
	}
}

func decodeReassembler(r *wire.Reader) *Reassembler {
	if wire.Tick(r.U64()) != reassemblyTimeout {
		r.Fail(errors.New("radio: snapshot reassembly timeout is not the medium's"))
	}
	re := NewReassembler()
	var prev fragKey
	// Each buffer record is at least 14 bytes.
	for i, n := 0, r.Count(14); i < n; i++ {
		k := fragKey{from: wire.RobotID(r.U16()), msgID: r.U16()}
		total := int(r.U8())
		buf := &fragBuf{total: total, spans: make([]fragSpan, total), lastSeen: wire.Tick(r.U64())}
		if i > 0 && (k.from < prev.from || k.from == prev.from && k.msgID <= prev.msgID) {
			r.Fail(errors.New("radio: snapshot reassembly buffers not in canonical order"))
		}
		prev = k
		if total == 0 {
			r.Fail(errors.New("radio: snapshot reassembly buffer with zero fragments"))
		}
		for j := range buf.spans {
			if r.Bool() {
				buf.add(j, r.Blob())
			}
		}
		if buf.received == 0 || buf.received >= total {
			r.Fail(errors.New("radio: snapshot reassembly buffer not incomplete"))
		}
		re.bufs[k] = buf
	}
	return re
}
