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
	// LossRate is an optional uniform packet-loss probability applied
	// per (frame, receiver) pair; 0 disables. It is shorthand for
	// installing UniformLoss{LossRate} as the medium's LossModel; a
	// model installed with SetLossModel takes precedence.
	LossRate float64
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
// Rate — the model Params.LossRate is shorthand for.
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
	Dropped        uint64 // frames lost to the loss model or blocked by a link filter
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

	queue    []queuedFrame
	seq      uint64
	counters map[wire.RobotID]*ByteCounters

	// Per-sender transmit state, behind a pointer so the steady-state
	// Send path reads the map but never writes it.
	senders map[wire.RobotID]*senderState

	// Optional fault hooks (see SetLossModel / SetLinkFilter /
	// SetTxDelay). loss defaults to UniformLoss when Params.LossRate
	// is set; filter and delay default to nil (inactive).
	loss   LossModel  //rebound:snapshot-skip fault-hook wiring, reattached at rebuild
	filter LinkFilter //rebound:snapshot-skip fault-hook wiring, reattached at rebuild
	delay  TxDelay    //rebound:snapshot-skip fault-hook wiring, reattached at rebuild

	// Fragmentation state (only used when params.MTUBytes > 0).
	reassemblers map[wire.RobotID]*Reassembler
	deliverTick  wire.Tick // logical clock for reassembly expiry

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
	// sortedBuf holds the deduped ascending roster; ctrBuf caches each
	// receiver's counters by roster rank (one map lookup per robot per
	// round instead of one per delivery); outBuf collects deliveries in
	// walk order and resultBuf receives them in sorted order (resultBuf
	// backs Deliver's return value — see the ownership note there);
	// countBuf is the counting sort's per-rank histogram.
	sortedBuf []wire.RobotID  //rebound:snapshot-skip per-round scratch
	ctrBuf    []*ByteCounters //rebound:snapshot-skip per-round scratch
	outBuf    []Delivery      //rebound:snapshot-skip per-round scratch
	resultBuf []Delivery      //rebound:snapshot-skip per-round scratch
	countBuf  []int32         //rebound:snapshot-skip per-round scratch
}

// NewMedium creates a medium. seed drives only the optional loss
// model; with LossRate 0 the medium is loss-free and the seed inert.
func NewMedium(params Params, pos Position, seed uint64) *Medium {
	m := &Medium{
		params:       params,
		pos:          pos,
		rng:          prng.New(seed),
		counters:     make(map[wire.RobotID]*ByteCounters),
		senders:      make(map[wire.RobotID]*senderState),
		reassemblers: make(map[wire.RobotID]*Reassembler),
	}
	if params.LossRate > 0 {
		m.loss = UniformLoss{Rate: params.LossRate}
	}
	return m
}

// SetLossModel replaces the loss model. nil disables loss entirely,
// including the Params.LossRate shorthand. A non-nil model consumes
// one RNG draw per candidate (frame, receiver) pair even when it
// never drops, so swapping models changes which draws later frames
// see — determinism is per (params, seed, model), not across models.
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
	ids := make([]wire.RobotID, 0, len(m.counters))
	for id := range m.counters {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		reg.Register(counterPrefix, uint64(id), m.counters[id])
	}
}

// counterPrefix names the byte counters' samples.
const counterPrefix = "radio.robot."

// SetPerf attaches the wall-clock phase timer (nil = disabled); the
// medium times its per-round spatial-grid rebuild with it. Like the
// tracer, observation-only.
func (m *Medium) SetPerf(t *perf.PhaseTimer) { m.perf = t }

// Counters returns the byte counters for a robot, creating them on
// first use.
func (m *Medium) Counters(id wire.RobotID) *ByteCounters {
	c := m.counters[id]
	if c == nil {
		c = &ByteCounters{}
		m.counters[id] = c
		m.metrics.Register(counterPrefix, uint64(id), c)
	}
	return c
}

// senderState is one transmitter's radio-side state: its fragment
// message-ID counter.
type senderState struct {
	nextMsgID uint16
}

// sender returns the per-sender state, creating it on first use.
func (m *Medium) sender(id wire.RobotID) *senderState {
	s := m.senders[id]
	if s == nil {
		s = &senderState{}
		m.senders[id] = s
	}
	return s
}

// Send enqueues a frame transmitted by `from` for delivery next tick,
// fragmenting it first when it exceeds the radio MTU. The physical
// transmitter is recorded separately from the frame's claimed source:
// radios can spoof header fields but not their own antenna position.
func (m *Medium) Send(from wire.RobotID, f wire.Frame) {
	c, s := m.Counters(from), m.sender(from)
	if m.params.MTUBytes > 0 {
		msgID := s.nextMsgID
		s.nextMsgID++
		for _, fr := range FragmentFrame(f, m.params.MTUBytes, msgID) {
			m.enqueue(c, from, fr)
		}
		return
	}
	m.enqueue(c, from, f)
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

// counterAt returns the receiver's byte counters via the per-round
// rank cache, creating them through Counters on first touch — so
// counter (and gauge) creation order stays exactly the order the
// delivery pipeline first touches each robot.
func (m *Medium) counterAt(rank int32, id wire.RobotID) *ByteCounters {
	if c := m.ctrBuf[rank]; c != nil {
		return c
	}
	c := m.Counters(id)
	m.ctrBuf[rank] = c
	return c
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
		m.counterAt(rank, id).Dropped++
		if m.trace != nil {
			m.trace.Emit(obs.Event{Tick: m.deliverTick, Robot: id,
				Kind: obs.EvFrameDropped, Peer: q.from,
				Cause: obs.CauseLinkFilter, Value: int64(q.size)})
		}
		return out
	}
	if m.loss != nil && m.loss.Drop(q.from, id, m.rng.Float64()) {
		m.counterAt(rank, id).Dropped++
		if m.trace != nil {
			m.trace.Emit(obs.Event{Tick: m.deliverTick, Robot: id,
				Kind: obs.EvFrameDropped, Peer: q.from,
				Cause: obs.CauseLoss, Value: int64(q.size)})
		}
		return out
	}
	c := m.counterAt(rank, id)
	c.RxFrames++
	if q.frame.IsAudit() {
		c.RxAudit += uint64(q.size)
	} else {
		c.RxApp += uint64(q.size)
	}
	if m.trace != nil {
		m.trace.Emit(obs.Event{Tick: m.deliverTick, Robot: id,
			Kind: obs.EvFrameRx, Peer: q.from, Value: int64(q.size)})
	}
	frame := q.frame
	if m.params.MTUBytes > 0 {
		reasm := m.reassemblers[id]
		if reasm == nil {
			// Generous expiry: fragments of one frame all arrive in
			// the same delivery round, so a handful of rounds is
			// plenty.
			reasm = NewReassembler(16)
			m.reassemblers[id] = reasm
		}
		complete, ok := reasm.Add(q.from, frame, m.deliverTick)
		if !ok {
			return out // waiting for more fragments (or junk)
		}
		frame = complete
	}
	return append(out, Delivery{To: id, Frame: frame, seq: q.seq, rank: rank})
}

// Delivery is one frame arriving at one robot.
type Delivery struct {
	To    wire.RobotID
	Frame wire.Frame

	seq  uint64 // transmit sequence, for the (receiver, queue-order) sort
	rank int32  // receiver's index in the round's roster (counting-sort key)
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
		m.ctrBuf = make([]*ByteCounters, len(sorted))
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

// expireReassemblers sweeps stale fragment buffers, in ID order: each
// reassembler is independent today, but replay determinism must not
// hinge on that staying true.
func (m *Medium) expireReassemblers() {
	ids := make([]wire.RobotID, 0, len(m.reassemblers))
	for id := range m.reassemblers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		m.reassemblers[id].Expire(m.deliverTick)
	}
}

// sortByRank stable counting sorts one round's deliveries by receiver
// roster rank into m.resultBuf and returns it (nil when empty, like
// the walk's nil result before this sort existed). nRanks is the
// roster length; every Delivery.rank is in [0, nRanks).
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
		counts[out[i].rank]++
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
		res[counts[d.rank]] = d
		counts[d.rank]++
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
