// Package radio simulates the ad-hoc wireless medium an MRS
// communicates over. It replaces the paper's ns-3 setup (§4) with the
// same physical model — log-distance path loss with the ESP32+2 dBi
// reference point (36.05 dB at 1 m, exponent 3) — plus a link budget
// that turns received power into deliverability, deterministic
// delivery ordering, optional packet loss, and the per-robot byte
// accounting behind Figs. 6–7.
package radio

import (
	"math"
	"slices"
	"sort"

	"roborebound/internal/geom"
	"roborebound/internal/geom/spatial"
	"roborebound/internal/obs"
	"roborebound/internal/obs/perf"
	"roborebound/internal/prng"
	"roborebound/internal/wire"
)

// Params models the link. Defaults reproduce the paper's setup.
type Params struct {
	// RefLossDB is the path loss at the reference distance (36.05 dB
	// at 1 m for the ESP32 + 2 dBi antenna, §4).
	RefLossDB float64
	// RefDistM is the reference distance in meters (1 m).
	RefDistM float64
	// PathLossExp is the propagation exponent (3, the ns-3 default the
	// paper uses).
	PathLossExp float64
	// TxPowerDBm is the transmit power (20 dBm, typical ESP32).
	TxPowerDBm float64
	// RxSensitivityDBm is the weakest decodable signal.
	RxSensitivityDBm float64
	// MTUBytes caps the encoded size of one on-air frame; larger
	// frames are fragmented and reassembled (Appendix B: the RFM69's
	// 66-byte FIFO). 0 disables fragmentation. Loss applies per
	// fragment, so large transfers suffer compounded loss — as they
	// would in reality.
	MTUBytes int
	// Deprecated: ignored; the grid is the only path. Kept only because
	// benchmark/ still assigns it; removed with those assignments
	// (ROADMAP item 2, PR A).
	SpatialIndex bool
}

// DefaultParams returns the paper's link model. The resulting
// communication radius is ≈199 m: a 25-robot, 4 m-spaced flock is
// fully connected, while an 18×18 grid at 64 m spacing is far wider
// than one transmission range — both properties the Fig. 7 narrative
// depends on.
func DefaultParams() Params {
	return Params{
		RefLossDB:        36.05,
		RefDistM:         1,
		PathLossExp:      3,
		TxPowerDBm:       20,
		RxSensitivityDBm: -85,
	}
}

// PathLossDB returns the path loss at distance d meters.
func (p Params) PathLossDB(d float64) float64 {
	if d < p.RefDistM {
		d = p.RefDistM
	}
	return p.RefLossDB + 10*p.PathLossExp*math.Log10(d/p.RefDistM)
}

// RxPowerDBm returns the received power at distance d.
func (p Params) RxPowerDBm(d float64) float64 {
	return p.TxPowerDBm - p.PathLossDB(d)
}

// RangeM returns the maximum distance at which frames are decodable.
func (p Params) RangeM() float64 {
	budget := p.TxPowerDBm - p.RxSensitivityDBm - p.RefLossDB
	return p.RefDistM * math.Pow(10, budget/(10*p.PathLossExp))
}

// Position reports a robot's true position; the simulation engine
// provides it from the physics world.
type Position func(id wire.RobotID) (geom.Vec2, bool)

// LossModel decides whether one candidate (frame, receiver) delivery
// is dropped. draw is the medium's deterministic per-candidate RNG
// sample in [0,1); a model must be a pure function of its inputs so a
// run stays bit-reproducible. Fault injection installs time-varying
// models that close over the engine clock.
type LossModel interface {
	Drop(from, to wire.RobotID, draw float64) bool
}

// UniformLoss drops every candidate independently with probability
// Rate.
type UniformLoss struct{ Rate float64 }

// Drop implements LossModel.
func (u UniformLoss) Drop(_, _ wire.RobotID, draw float64) bool { return draw < u.Rate }

// LinkFilter blocks candidate deliveries outright (true = blocked).
// Unlike a LossModel it consumes no RNG draw, so installing one never
// perturbs the loss model's draw stream for the frames it lets
// through. Fault injection uses it for partitions and withheld
// responses. It runs after the range check and before the loss draw.
type LinkFilter func(from, to wire.RobotID, f wire.Frame) bool

// TxDelay returns how many extra delivery rounds to hold a frame in
// the air before it becomes deliverable (0 = normal next-round
// delivery). Held frames keep their transmit sequence number, so the
// (receiver, seq) delivery contract still holds when they land. Fault
// injection uses it to delay audit/token responses.
type TxDelay func(from wire.RobotID, f wire.Frame) wire.Tick

// ByteCounters accumulates the traffic accounting for one robot,
// split into application vs audit traffic (the paper's Fig. 6 plots
// exactly this breakdown).
type ByteCounters struct {
	TxApp, TxAudit uint64
	RxApp, RxAudit uint64
	TxFrames       uint64
	RxFrames       uint64
	Dropped        uint64 // frames lost to the loss model, blocked by a link filter, or refused as oversize
}

// Total returns all bytes sent plus received.
func (b *ByteCounters) Total() uint64 { return b.TxApp + b.TxAudit + b.RxApp + b.RxAudit }

// WriteSamples writes the counters; the medium's registry calls it at
// every Snapshot (see Medium.SetObs).
func (b *ByteCounters) WriteSamples(w *obs.SampleWriter) {
	w.Value("tx_app_bytes", float64(b.TxApp))
	w.Value("tx_audit_bytes", float64(b.TxAudit))
	w.Value("rx_app_bytes", float64(b.RxApp))
	w.Value("rx_audit_bytes", float64(b.RxAudit))
	w.Value("tx_frames", float64(b.TxFrames))
	w.Value("rx_frames", float64(b.RxFrames))
	w.Value("dropped_frames", float64(b.Dropped))
}

type queuedFrame struct {
	frame   wire.Frame
	from    wire.RobotID // physical transmitter (≠ claimed frame.Src for spoofers)
	seq     uint64
	size    int       // encoded length, measured once at Send time
	readyAt wire.Tick // earliest delivery round (TxDelay holds frames past this)
}

// Medium is the shared wireless channel. Frames transmitted during
// tick N are delivered at the start of tick N+1, in deterministic
// (receiver ID, then transmit sequence) order.
type Medium struct {
	params Params   //rebound:snapshot-skip immutable config, supplied at rebuild
	pos    Position //rebound:snapshot-skip position callback wiring, reattached at rebuild
	rng    *prng.Source

	queue []queuedFrame
	seq   uint64
	// stations holds each robot's radio state (see station), carved
	// from chunk.
	stations map[wire.RobotID]*station
	chunk    []station

	// Optional fault hooks (see SetLossModel / SetLinkFilter /
	// SetTxDelay), all nil (inactive) until installed.
	loss   LossModel  //rebound:snapshot-skip fault-hook wiring, reattached at rebuild
	filter LinkFilter //rebound:snapshot-skip fault-hook wiring, reattached at rebuild
	delay  TxDelay    //rebound:snapshot-skip fault-hook wiring, reattached at rebuild

	deliverTick wire.Tick // logical clock for reassembly expiry

	// Observability (see SetObs). trace receives one event per frame
	// tx/rx/drop; metrics reads each robot's byte counters at snapshot.
	trace   obs.Tracer //rebound:snapshot-skip observer wiring, reattached at rebuild
	metrics *obs.Registry

	// perf times the per-round spatial-grid rebuild (nil = disabled).
	perf *perf.PhaseTimer //rebound:snapshot-skip observation-only wall-clock plane, reattached at rebuild

	// Spatial-index state: the grid is rebuilt once per Deliver round
	// from this round's positions; the buffers amortize to zero
	// allocations per round.
	grid    spatial.Grid     //rebound:snapshot-skip rebuilt from positions every Deliver round
	gridBuf []spatial.Member //rebound:snapshot-skip per-round scratch

	// Deliver-round scratch, reused across rounds:
	// sortedBuf holds the deduped ascending roster (and, once the round
	// is done with it, expireReassemblers' ID order); ctrBuf caches each
	// receiver's station by roster rank (one map lookup per robot per
	// round instead of one per delivery); outBuf collects deliveries in
	// walk order and resultBuf receives them in sorted order (resultBuf
	// backs Deliver's return value — see the ownership note there);
	// countBuf is the counting sort's per-rank histogram.
	sortedBuf []wire.RobotID //rebound:snapshot-skip per-round scratch
	ctrBuf    []*station     //rebound:snapshot-skip per-round scratch
	outBuf    []Delivery     //rebound:snapshot-skip per-round scratch
	resultBuf []Delivery     //rebound:snapshot-skip per-round scratch
	countBuf  []int32        //rebound:snapshot-skip per-round scratch
}

// NewMedium creates a loss-free medium. seed drives only a loss model
// installed later with SetLossModel; without one the seed is inert.
func NewMedium(params Params, pos Position, seed uint64) *Medium {
	return &Medium{
		params:   params,
		pos:      pos,
		rng:      prng.New(seed),
		stations: make(map[wire.RobotID]*station),
	}
}

// SetLossModel replaces the loss model; nil disables loss. A non-nil
// model consumes one RNG draw per candidate (frame, receiver) pair even
// when it never drops, so swapping models changes which draws later
// frames see — determinism is per (params, seed, model), not across
// models.
func (m *Medium) SetLossModel(l LossModel) { m.loss = l }

// SetLinkFilter installs a delivery filter (nil disables).
func (m *Medium) SetLinkFilter(f LinkFilter) { m.filter = f }

// SetTxDelay installs a transmit-delay hook (nil disables).
func (m *Medium) SetTxDelay(d TxDelay) { m.delay = d }

// Params returns the link parameters.
func (m *Medium) Params() Params { return m.params }

// SetObs attaches the observability layer: tr (nil = disabled)
// receives one tick-stamped event per frame transmitted, received,
// or dropped; reg (nil = disabled) reads each robot's byte counters
// as radio.robot.<id>.* samples at snapshot time, so the accounting
// is never double-written. Tracing is observation only — the frame
// schedule, loss draws, and delivery order are untouched.
func (m *Medium) SetObs(tr obs.Tracer, reg *obs.Registry) {
	m.trace = tr
	m.metrics = reg
	// Robots that already have counters (created before SetObs)
	// register now; later robots register on first use.
	ids := make([]wire.RobotID, 0, len(m.stations))
	for id := range m.stations {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		reg.Register(counterPrefix, uint64(id), &m.stations[id].ByteCounters)
	}
}

// counterPrefix names the byte counters' samples.
const counterPrefix = "radio.robot."

// SetPerf attaches the wall-clock phase timer (nil = disabled); the
// medium times its per-round spatial-grid rebuild with it. Like the
// tracer, observation-only.
func (m *Medium) SetPerf(t *perf.PhaseTimer) { m.perf = t }

// station is one robot's radio state: its byte counters, the message
// ID of its next fragmented frame, whether it has sent (a robot gets
// counters without sending: every receiver does, and so does every
// robot whose Counters are read), and its reassembler, made when it
// first receives at a positive MTU.
type station struct {
	ByteCounters
	nextMsgID uint16
	sent      bool
	reasm     *Reassembler
}

// station returns a robot's station, creating it on first use.
// Stations are carved from chunks that double up to 64 robots' worth
// and are never regrown, so a station keeps its address and a swarm's
// cost a handful of allocations.
func (m *Medium) station(id wire.RobotID) *station {
	st := m.stations[id]
	if st == nil {
		if len(m.chunk) == cap(m.chunk) {
			m.chunk = make([]station, 0, min(max(2*cap(m.chunk), 4), 64))
		}
		m.chunk = m.chunk[:len(m.chunk)+1]
		st = &m.chunk[len(m.chunk)-1]
		m.stations[id] = st
		m.metrics.Register(counterPrefix, uint64(id), &st.ByteCounters)
	}
	return st
}

// Counters returns the byte counters for a robot, creating them on
// first use.
func (m *Medium) Counters(id wire.RobotID) *ByteCounters { return &m.station(id).ByteCounters }

// Send enqueues a frame transmitted by `from` for delivery next tick,
// fragmenting it first when it exceeds the radio MTU. The physical
// transmitter is recorded separately from the frame's claimed source:
// radios can spoof header fields but not their own antenna position.
//
// A frame that needs more fragments than a fragment header can number
// is refused like a lost one: counted in the transmitter's Dropped,
// traced as an oversize drop, never enqueued. Only an audit request
// grows that large (every other payload is capped at
// wire.MaxLoggedPayload), and the protocol's retry loop absorbs it.
//
// A frame that fits the MTU is enqueued as it is. One that does not is
// cut into fragments whose payloads share one exact-size buffer, so a
// fragmented send costs one allocation (pinned by
// TestSendSteadyStateAllocations).
func (m *Medium) Send(from wire.RobotID, f wire.Frame) {
	st := m.station(from)
	st.sent = true
	c := &st.ByteCounters
	mtu := m.params.MTUBytes
	if mtu <= 0 {
		m.enqueue(c, from, f)
		return
	}
	size := f.EncodedSize()
	if oversize(size, mtu) {
		m.drop(c, from, from, obs.CauseOversize, size)
		return
	}
	msgID := st.nextMsgID
	st.nextMsgID++
	if size <= mtu {
		m.enqueue(c, from, f)
		return
	}
	cut := newFragmenter(f, mtu, msgID)
	for range cut.total {
		m.enqueue(c, from, cut.next())
	}
}

// enqueue accounts for and queues one on-air frame. Sizes come from
// Frame.EncodedSize — arithmetic, not a measurement Encode — so the
// unfragmented Send path allocates nothing at steady state (pinned by
// TestSendSteadyStateAllocations).
func (m *Medium) enqueue(c *ByteCounters, from wire.RobotID, fr wire.Frame) {
	size := fr.EncodedSize()
	c.TxFrames++
	if fr.IsAudit() {
		c.TxAudit += uint64(size)
	} else {
		c.TxApp += uint64(size)
	}
	if m.trace != nil {
		m.trace.Emit(obs.Event{Tick: m.deliverTick, Robot: from,
			Kind: obs.EvFrameTx, Peer: fr.Dst, Value: int64(size)})
	}
	q := queuedFrame{frame: fr, from: from, size: size, readyAt: m.deliverTick}
	if m.delay != nil {
		q.readyAt += m.delay(from, fr)
	}
	q.seq = m.seq
	m.seq++
	m.queue = append(m.queue, q)
}

// rangeSlack pads the spatial query radius past Params.RangeM, in
// meters. The grid prefilters on squared distance while the delivery
// pipeline decides on the log-domain power check; near the range
// boundary the two computations round differently by at most ~1e-12 m,
// so a micrometer of slack guarantees the candidate set is a strict
// superset of the decodable set. The pipeline's own power check then
// makes the final call, so the slack can only add candidates that are
// rejected exactly as a scan of every robot would reject them.
const rangeSlack = 1e-6

// stationAt returns the receiver's station via the per-round rank
// cache, creating it on first touch — so station (and gauge) creation
// order stays exactly the order the delivery pipeline first touches
// each robot.
func (m *Medium) stationAt(rank int32, id wire.RobotID) *station {
	if st := m.ctrBuf[rank]; st != nil {
		return st
	}
	st := m.station(id)
	m.ctrBuf[rank] = st
	return st
}

// drop counts a frame of size bytes that robot lost, sent by the
// physical transmitter peer, in robot's counters c and traces it.
func (m *Medium) drop(c *ByteCounters, robot, peer wire.RobotID, cause obs.DropCause, size int) {
	c.Dropped++
	if m.trace != nil {
		m.trace.Emit(obs.Event{Tick: m.deliverTick, Robot: robot,
			Kind: obs.EvFrameDropped, Peer: peer, Cause: cause, Value: int64(size)})
	}
}

// deliverTo runs the per-candidate delivery pipeline for one queued
// frame and one potential receiver at position dst: power check, link
// filter, loss draw, byte accounting, reassembly. rank is the
// receiver's index in the round's sorted roster. The grid only decides
// which out-of-range robots never reach it: a candidate it is handed
// goes through the same checks, in the same order, as under a scan of
// every robot.
func (m *Medium) deliverTo(q queuedFrame, rank int32, id wire.RobotID, src, dst geom.Vec2, out []Delivery) []Delivery {
	if m.params.RxPowerDBm(src.Dist(dst)) < m.params.RxSensitivityDBm {
		return out
	}
	if m.filter != nil && m.filter(q.from, id, q.frame) {
		m.drop(&m.stationAt(rank, id).ByteCounters, id, q.from, obs.CauseLinkFilter, q.size)
		return out
	}
	if m.loss != nil && m.loss.Drop(q.from, id, m.rng.Float64()) {
		m.drop(&m.stationAt(rank, id).ByteCounters, id, q.from, obs.CauseLoss, q.size)
		return out
	}
	st := m.stationAt(rank, id)
	st.RxFrames++
	if q.frame.IsAudit() {
		st.RxAudit += uint64(q.size)
	} else {
		st.RxApp += uint64(q.size)
	}
	if m.trace != nil {
		m.trace.Emit(obs.Event{Tick: m.deliverTick, Robot: id,
			Kind: obs.EvFrameRx, Peer: q.from, Value: int64(q.size)})
	}
	frame := q.frame
	if m.params.MTUBytes > 0 {
		if st.reasm == nil {
			st.reasm = NewReassembler()
		}
		complete, ok := st.reasm.Add(q.from, frame, m.deliverTick)
		if !ok {
			return out // waiting for more fragments (or junk)
		}
		frame = complete
	}
	return append(out, Delivery{To: id, Frame: frame, Rank: rank, seq: q.seq})
}

// Delivery is one frame arriving at one robot.
type Delivery struct {
	To    wire.RobotID
	Frame wire.Frame
	// Rank is the receiver's index in the ascending, deduplicated
	// roster Deliver was given (and the counting sort's key).
	Rank int32

	seq uint64 // transmit sequence, for the (receiver, queue-order) sort
}

// Deliver computes which robots receive each queued frame and clears
// the queue. Receivers are all robots within decode range of the
// transmitter's position, except the transmitter itself; unicast
// frames are radio broadcasts too (anyone in range hears them), but
// only the addressee is returned — the a-node's address filter drops
// the rest, and the paper's byte accounting likewise counts only
// decoded-and-kept traffic.
//
// Deliveries are returned in (receiver ID, then transmit queue order)
// — the ordering the simulation engine documents and that each
// c-node's log therefore records. Per receiver this equals send
// order; across receivers it is receiver-major, so every robot's
// inbound frame sequence is independent of how other receivers
// interleave.
//
// ids is treated as a set (duplicates are ignored). The returned slice
// is owned by the Medium and overwritten by the next Deliver call;
// callers that retain deliveries past the round must copy them.
// Delivery values themselves are safe to keep — only the backing array
// is reused. The returned slice is the one Medium buffer that still
// reaches this round's payloads: Deliver clears its walk-order copies
// and the queue slots behind the frames still in the air before it
// returns, so a caller that clears the slice once it has handed every
// frame on (sim.Engine does) leaves the Medium holding only frames not
// yet delivered.
func (m *Medium) Deliver(ids []wire.RobotID) []Delivery {
	if len(m.queue) == 0 {
		return nil
	}
	sorted := append(m.sortedBuf[:0], ids...)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	m.sortedBuf = sorted
	if cap(m.ctrBuf) < len(sorted) {
		m.ctrBuf = make([]*station, len(sorted))
	}
	m.ctrBuf = m.ctrBuf[:len(sorted)]
	clear(m.ctrBuf)

	// Candidate receivers per frame come from a uniform grid over this
	// round's positions instead of a scan of every robot. Members carry
	// the receiver's roster rank; candidates arrive ascending by rank —
	// which orders exactly as ID in the deduped ascending roster, i.e.
	// the order a scan of the roster visits — and form a superset of the
	// decodable set (see rangeSlack), so the pipeline below sees the
	// check sequence, consumes the loss draws, and emits the traces of
	// that scan.
	r := m.params.RangeM()
	cell, queryR := r/2, r+rangeSlack
	if !(cell > 0) || math.IsInf(cell, 0) {
		// Degenerate link model (range zero, negative, NaN or +Inf): no
		// radius bounds the decodable set, so every robot is a candidate
		// — Within scans all members on an infinite radius — and
		// deliverTo's link test alone decides. The cell size is then
		// moot; Reset only needs it positive and finite.
		cell, queryR = 1, math.Inf(1)
	}
	ps := m.perf.Start()
	m.grid.Reset(cell)
	m.grid.Grow(len(sorted))
	for rank, id := range sorted {
		if p, ok := m.pos(id); ok {
			m.grid.Add(int32(rank), p)
		}
	}
	m.grid.Build()
	m.perf.End(perf.PhaseSpatialBuild, ps)
	m.gridBuf = slices.Grow(m.gridBuf[:0], len(sorted))

	out := m.outBuf[:0]
	held := m.queue[:0]
	for _, q := range m.queue {
		if q.readyAt > m.deliverTick {
			held = append(held, q) // still in the air (TxDelay); retry next round
			continue
		}
		src, ok := m.pos(q.from)
		if !ok {
			continue
		}
		m.gridBuf = m.grid.Within(src, queryR, m.gridBuf)
		for _, cand := range m.gridBuf {
			id := sorted[cand.ID]
			if id == q.from {
				continue
			}
			if q.frame.Dst != wire.Broadcast && q.frame.Dst != id {
				continue
			}
			out = m.deliverTo(q, cand.ID, id, src, cand.Pos, out)
		}
	}
	m.outBuf = out
	// The loop above walks frame-major (preserving the loss model's
	// per-(frame, receiver) RNG draw order across versions); the
	// documented contract is receiver-major. The queue is ascending in
	// transmit seq — held frames keep their prefix positions, new sends
	// append with larger seqs — so each receiver's deliveries were
	// already appended in seq order, and a stable counting sort on
	// roster rank produces the exact (To, seq) order a comparison sort
	// of the unique (To, seq) keys would, in linear time and without
	// the struct-compare traffic that used to dominate swarm rounds.
	out = m.sortByRank(out, len(sorted))
	// The walk-order copies and the queue slots behind the held frames
	// are dead now; cleared, they stop keeping delivered payloads
	// reachable until the next round overwrites them. Clearing
	// allocates nothing.
	clear(m.outBuf)
	clear(m.queue[len(held):])
	m.queue = held
	m.deliverTick++
	if m.params.MTUBytes > 0 && m.deliverTick%32 == 0 {
		m.expireReassemblers()
	}
	return out
}

// expireReassemblers sweeps stale fragment buffers of the stations
// that have a reassembler, in ID order: each reassembler is
// independent today, but replay determinism must not hinge on that
// staying true. It runs at the end of a Deliver round, once the round's
// roster is dead, and sorts the IDs in its buffer.
func (m *Medium) expireReassemblers() {
	ids := m.sortedBuf[:0]
	for id, st := range m.stations {
		if st.reasm != nil {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		m.stations[id].reasm.Expire(m.deliverTick)
	}
	m.sortedBuf = ids
}

// sortByRank stable counting sorts one round's deliveries by receiver
// roster rank into m.resultBuf and returns it (nil when empty, like
// the walk's nil result before this sort existed). nRanks is the
// roster length; every Delivery.Rank is in [0, nRanks).
func (m *Medium) sortByRank(out []Delivery, nRanks int) []Delivery {
	if len(out) == 0 {
		return nil
	}
	if cap(m.countBuf) < nRanks {
		m.countBuf = make([]int32, nRanks)
	}
	counts := m.countBuf[:nRanks]
	clear(counts)
	for i := range out {
		counts[out[i].Rank]++
	}
	var sum int32
	for r := range counts {
		counts[r], sum = sum, sum+counts[r]
	}
	// Grow geometrically: a dense round's delivery count creeps up by a
	// frame or two at a time, and growing to exactly len(out) would
	// reallocate the whole ~1 MB slice on each new maximum.
	m.resultBuf = slices.Grow(m.resultBuf[:0], len(out))
	res := m.resultBuf[:len(out)]
	for _, d := range out {
		res[counts[d.Rank]] = d
		counts[d.Rank]++
	}
	return res
}

// InRange reports whether two robots can currently hear each other.
func (m *Medium) InRange(a, b wire.RobotID) bool {
	pa, oka := m.pos(a)
	pb, okb := m.pos(b)
	return oka && okb && m.params.RxPowerDBm(pa.Dist(pb)) >= m.params.RxSensitivityDBm
}

// NeighborsOf returns the ids (from the given set) within range of id,
// sorted ascending.
func (m *Medium) NeighborsOf(id wire.RobotID, ids []wire.RobotID) []wire.RobotID {
	var out []wire.RobotID
	for _, other := range ids {
		if other != id && m.InRange(id, other) {
			out = append(out, other)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
