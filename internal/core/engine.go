package core

import (
	"cmp"
	"slices"

	"roborebound/internal/auditlog"
	"roborebound/internal/control"
	"roborebound/internal/cryptolite"
	"roborebound/internal/obs"
	"roborebound/internal/obs/perf"
	"roborebound/internal/replay"
	"roborebound/internal/trusted"
	"roborebound/internal/wire"
)

// Engine is one robot's protocol engine. It is single-goroutine by
// construction: the simulation (or a real c-node's event loop) calls
// OnSensorReadingEnc, OnFrameEnc, and Tick in a fixed order.
type Engine struct {
	id      wire.RobotID
	cfg     Config //rebound:snapshot-skip immutable config, supplied at rebuild
	factory control.Factory
	ctrl    control.Controller

	snode *trusted.SNode //rebound:snapshot-skip trusted node carries its own codec, wired at rebuild
	anode *trusted.ANode //rebound:snapshot-skip trusted node carries its own codec, wired at rebuild
	log   auditlog.Log

	// send is the a-node (see Sender): it returns the frame encoding the
	// a-node's chain witnessed (nil for audit frames), lent from the
	// node's send buffer; the engine logs exactly those bytes, and
	// logAppend copies them before the node is called again.
	send Sender //rebound:snapshot-skip a-node wiring, reattached at rebuild
	// checkAuth is the a-node's CheckAuthenticator, bound once: a method
	// value bound per audit would be a heap object per cache miss. It is
	// a func because replay.Config.CheckAuthenticator is one, a field the
	// benchmark's drills also set; it waits for that field to become an
	// interface the a-node satisfies (ROADMAP item 1).
	checkAuth func(wire.Authenticator) bool //rebound:snapshot-skip a-node wiring, reattached at rebuild

	// heard lists every peer a frame has come from, ascending by ID,
	// each with the last tick it was heard (see hear). One slice of
	// records rather than a map: one is written per received frame, and
	// the medium delivers a tick's frames in ascending sender order, so
	// the slot after the last one written (heardHint) is almost always
	// the one wanted.
	heard     []heardPeer
	heardHint int       //rebound:snapshot-skip lookup accelerator, every value finds the same slot
	now       wire.Tick //rebound:clock trusted

	round  *auditRound
	rounds int // audit rounds started; drives auditor rotation (see solicit)
	// served holds the timestamps of recently served audits (the
	// ServeLimit window), sized to ServeLimit at the first serve; with
	// no limit it stays empty.
	served []wire.Tick

	// acache is the swarm-shared replay-verdict cache; nil replays
	// every request. Snapshotted once at the swarm level, not per
	// engine.
	acache *AuditCache //rebound:snapshot-skip swarm-level cache, snapshotted once by the runner

	stats Stats
	trace obs.Tracer //rebound:snapshot-skip observer wiring, reattached at rebuild
	// roundLatency is the start→covered latency in ticks: &latency once
	// instrumented, nil before. latency tallies into latencyCounts, so
	// the engine holds its histogram whole.
	roundLatency  *obs.Histogram
	latency       obs.Histogram                       //rebound:snapshot-skip roundLatency's storage, carried through it
	latencyCounts [len(roundLatencyBounds) + 1]uint64 //rebound:snapshot-skip roundLatency's storage, carried through it

	// perf attributes wall-clock time to the engine's protocol phases:
	// audit serves (split cache-hit/miss on the cached plane) and
	// audit-log appends. Timed here, not in trusted or auditlog — the
	// TCB's import surface stays stdlib-only, so the c-node engine times
	// its calls into those layers from outside.
	//
	//rebound:snapshot-skip observation-only wall-clock plane, reattached at rebuild
	perf *perf.PhaseTimer

	// appendSeq selects which chain appends logAppend times (1 in
	// appendSampleWeight). Advances identically whether or not a timer
	// is attached, and drives nothing but instrumentation.
	//
	//rebound:snapshot-skip perf sampling phase, observation-only
	appendSeq uint64

	// Round scratch: solicit's candidate list (sized to the heard set's
	// capacity) and the auditor's decoded request. Each is rebuilt from
	// empty by the call that uses it and read by nothing after that call
	// returns; request holds no view of a payload once onAuditRequest
	// returns.
	candidates []wire.RobotID    //rebound:snapshot-skip write-only scratch, no retained state
	request    wire.AuditRequest //rebound:snapshot-skip write-only scratch, no retained state

	// slab carves the small payloads the engine sends: its broadcast
	// copies and audit responses.
	slab wire.Slab //rebound:snapshot-skip payload storage; what it carved belongs to the frames sent
}

// heardPeer is one entry of the heard set: a peer and the last tick a
// frame came from it.
type heardPeer struct {
	id wire.RobotID
	at wire.Tick
}

type auditRound struct {
	hash     cryptolite.ChainHash
	startAt  wire.Tick //rebound:clock trusted
	covered  bool
	fromBoot bool

	encStart []byte
	// startTok is the round's own copy of the tokens covering its start:
	// the log rewrites its covered start in place at the next
	// MarkCovered, and a snapshot of this round still carries them.
	startTok []wire.Token
	encEnd   []byte
	// segment is the round's encoded log segment. The round holds one
	// copy of it: the log's own window while startRound runs, until the
	// first request is built; from then on the end of reqTail; a private
	// copy only when startRound returns with no request built (and after a
	// restore of such a round). nil once the round is covered.
	segment []byte
	// reqTail is the request's encoded tail (checkpoints, tokens,
	// segment) — identical for every auditor this round. It is the tail
	// of the first request's payload, read-only since that payload was
	// sent (see askOne); nil until an ask has been encoded, and nil again
	// once the round is covered: a covered round asks no one, so it lets
	// go of the payload (onAuditResponse).
	reqTail []byte

	// tokens holds one installed token per auditor, ascending by
	// Auditor (a repeat auditor's replaces its first); asked lists every
	// auditor asked this round, ascending. The engine keeps one round
	// and resets it in place each startRound, so both keep their storage.
	tokens  []wire.Token
	asked   []wire.RobotID
	lastAsk wire.Tick //rebound:clock trusted
}

// tokenAt returns the position of auditor id's token in r.tokens, or
// the position it would take, and whether it is there.
func (r *auditRound) tokenAt(id wire.RobotID) (int, bool) {
	return slices.BinarySearchFunc(r.tokens, id, func(t wire.Token, id wire.RobotID) int {
		return cmp.Compare(t.Auditor, id)
	})
}

// addToken files tok under its auditor.
func (r *auditRound) addToken(tok wire.Token) {
	if i, found := r.tokenAt(tok.Auditor); found {
		r.tokens[i] = tok
	} else {
		r.tokens = slices.Insert(r.tokens, i, tok)
	}
}

// markAsked adds id to r.asked and reports whether it was new.
func (r *auditRound) markAsked(id wire.RobotID) bool {
	i, found := slices.BinarySearch(r.asked, id)
	if !found {
		r.asked = slices.Insert(r.asked, i, id)
	}
	return !found
}

// Sender is what the engine transmits through: the a-node, whose
// SendWirelessEnc forwards a frame to the radio and returns the
// encoding its chain committed (nil for audit frames). *trusted.ANode
// is one.
type Sender interface {
	SendWirelessEnc(f wire.Frame) ([]byte, bool)
}

// sendFunc is NewEngine's Sender: a hook with SendWirelessEnc's shape.
type sendFunc func(wire.Frame) ([]byte, bool)

func (f sendFunc) SendWirelessEnc(fr wire.Frame) ([]byte, bool) { return f(fr) }

// NewEngine constructs the protocol engine for one robot (see Init),
// sending through the hook send.
func NewEngine(id wire.RobotID, cfg Config, factory control.Factory,
	snode *trusted.SNode, anode *trusted.ANode, send func(wire.Frame) ([]byte, bool)) *Engine {
	e := new(Engine)
	e.Init(id, cfg, factory, snode, anode, sendFunc(send))
	return e
}

// Init sets e up in place as the protocol engine for one robot, with
// an empty log and a fresh controller. The caller provisions the
// trusted nodes (master + mission keys) separately. send is the a-node
// (or an equivalent Sender that returns the chained frame encoding,
// nil for audit frames); the engine treats the returned bytes as
// borrowed and copies them into its log before sending again.
func (e *Engine) Init(id wire.RobotID, cfg Config, factory control.Factory,
	snode *trusted.SNode, anode *trusted.ANode, send Sender) {
	*e = Engine{
		id:      id,
		cfg:     cfg,
		factory: factory,
		ctrl:    factory.New(id),
		snode:   snode,
		anode:   anode,
		send:    send,
	}
	if anode != nil {
		e.checkAuth = anode.CheckAuthenticator
	}
}

// roundLatencyBounds are the round-latency histogram's buckets, in
// ticks, shared by every engine's histogram.
var roundLatencyBounds = [...]float64{1, 2, 4, 8, 16, 32, 64}

// Instrument attaches the observability layer: protocol events go to
// tr (nil disables tracing at zero cost) and, when reg is non-nil,
// the engine registers with it once, so every registry snapshot reads
// its tallies as core.robot.<id>.<stat> plus a round-latency
// histogram. The tallies restart from zero: call before the first Tick.
func (e *Engine) Instrument(tr obs.Tracer, reg *obs.Registry) {
	e.trace = tr
	if reg == nil {
		return
	}
	e.stats = Stats{}
	e.latency.Init(roundLatencyBounds[:], e.latencyCounts[:])
	e.roundLatency = &e.latency
	reg.Register("core.robot.", uint64(e.id), e)
}

// WriteSamples writes the engine's tallies; the registry it was
// instrumented with calls it at every Snapshot.
func (e *Engine) WriteSamples(w *obs.SampleWriter) {
	w.Value("rounds_started", float64(e.stats.RoundsStarted))
	w.Value("rounds_covered", float64(e.stats.RoundsCovered))
	w.Value("rounds_abandoned", float64(e.stats.RoundsAbandoned))
	w.Value("audits_requested", float64(e.stats.AuditsRequested))
	w.Value("audits_served", float64(e.stats.AuditsServed))
	w.Value("audits_refused", float64(e.stats.AuditsRefused))
	w.Value("tokens_installed", float64(e.stats.TokensInstalled))
	w.Value("tokens_rejected", float64(e.stats.TokensRejected))
	w.Histogram("round_latency_ticks", e.roundLatency)
}

// SetPerf attaches the wall-clock phase timer (nil = disabled). Like
// Instrument, call before the first Tick; observation-only.
func (e *Engine) SetPerf(t *perf.PhaseTimer) { e.perf = t }

// appendSampleWeight is logAppend's sampling rate: one append in
// eight is timed and recorded as eight (perf.EndSampled). Appends are
// the pipeline's hottest instrumented operation — tens of thousands
// per simulated second, each ~100 ns of real work — so timing every
// one would roughly double its cost and blow the ≤3% overhead budget
// on clock reads alone.
const appendSampleWeight = 8

// logAppend appends one entry to the audit log, attributing the cost
// (hash-chain + streaming-window maintenance) to the chain-append
// perf phase, sampled 1-in-appendSampleWeight. All engine-side
// appends route through here so the attribution is complete. The log
// copies the payload, which is what lets every caller pass bytes it
// only borrows from a trusted node's buffer.
func (e *Engine) logAppend(entry wire.LogEntry) {
	e.appendSeq++
	if e.appendSeq%appendSampleWeight != 0 {
		e.log.Append(entry)
		return
	}
	ps := e.perf.Start()
	e.log.Append(entry)
	e.perf.EndSampled(perf.PhaseChainAppend, ps, appendSampleWeight)
}

// SetAuditCache attaches a shared replay-verdict cache (see
// AuditCache). Pass the same cache to every engine of a swarm; nil
// (the default) replays every request.
func (e *Engine) SetAuditCache(c *AuditCache) { e.acache = c }

// Controller exposes the live controller (the robot reads it for
// metrics; the engine owns its lifecycle).
func (e *Engine) Controller() control.Controller { return e.ctrl }

// Log exposes the audit log for storage accounting.
func (e *Engine) Log() *auditlog.Log { return &e.log }

// Stats returns a snapshot of the protocol counters.
func (e *Engine) Stats() Stats { return e.stats }

// CurrentRoundHash returns the checkpoint hash of the in-progress
// audit round, if any (tests and metrics only).
func (e *Engine) CurrentRoundHash() (cryptolite.ChainHash, bool) {
	if e.round == nil {
		return cryptolite.ChainHash{}, false
	}
	return e.round.hash, true
}

// OnSensorReadingEnc drives one control step: the reading has already
// passed through (and been chained by) the s-node, and enc is the
// encoding the s-node chained (see SNode.PollSensorsEnc). The engine
// logs it, steps the controller, and routes the outputs through the
// a-node, logging exactly what the a-node forwards. enc is borrowed:
// it is copied into the log here and never read after the call
// returns.
func (e *Engine) OnSensorReadingEnc(reading wire.SensorReading, enc []byte) {
	e.logAppend(wire.LogEntry{Kind: wire.EntrySensor, Payload: enc})
	out := e.ctrl.OnSensor(reading)
	if out.Broadcast != nil {
		// The broadcast is lent by the controller; a sent payload is
		// never written again, so the frame carries its own copy.
		payload := append(e.slab.Payload(len(out.Broadcast)), out.Broadcast...)
		f := wire.Frame{Src: e.id, Dst: wire.Broadcast, Payload: payload}
		if encF, ok := e.send.SendWirelessEnc(f); ok {
			e.logAppend(wire.LogEntry{Kind: wire.EntrySend, Payload: encF})
		}
	}
	if out.HasCmd {
		if encC, ok := e.anode.ActuatorCmdEnc(out.Cmd); ok {
			e.logAppend(wire.LogEntry{Kind: wire.EntryActuator, Payload: encC})
		}
	}
}

// OnFrameEnc handles a frame the a-node forwarded up. Application
// frames are logged and fed to the controller; audit-flagged frames
// drive the audit protocol and are never logged (§3.4). enc is the
// frame encoding the a-node's chain witnessed (nil for audit frames),
// borrowed from the a-node's receive buffer for the duration of the
// call: it is copied into the log here and never read after the call
// returns.
func (e *Engine) OnFrameEnc(f wire.Frame, enc []byte) {
	e.hear(f.Src)
	if !f.IsAudit() {
		e.logAppend(wire.LogEntry{Kind: wire.EntryRecv, Payload: enc})
		e.ctrl.OnMessage(f.Payload)
		return
	}
	switch wire.PayloadKind(f.Payload) {
	case wire.KindAuditRequest:
		ps := e.perf.Start()
		e.perf.End(e.onAuditRequest(f.Payload), ps)
	case wire.KindAuditResponse:
		if resp, err := wire.DecodeAuditResponse(f.Payload); err == nil {
			e.onAuditResponse(resp)
		}
	}
}

// hear records that src was heard at the current tick.
func (e *Engine) hear(src wire.RobotID) {
	i := e.heardHint + 1
	if i >= len(e.heard) || e.heard[i].id != src {
		// A binary search for src's slot, by hand: slices.BinarySearchFunc
		// calls its comparison through a func value, twice as slow here.
		lo, hi := 0, len(e.heard)
		for lo < hi {
			if m := int(uint(lo+hi) >> 1); e.heard[m].id < src {
				lo = m + 1
			} else {
				hi = m
			}
		}
		if i = lo; i == len(e.heard) || e.heard[i].id != src {
			if cap(e.heard) == 0 {
				// Room for a sparse cell's handful of neighbours in one
				// allocation; a dense cell's set grows from here.
				e.heard = make([]heardPeer, 0, 8)
			}
			e.heard = slices.Insert(e.heard, i, heardPeer{id: src})
		}
	}
	e.heard[i].at = e.now
	e.heardHint = i
}

// Tick advances protocol time: starts audit rounds on this robot's
// phase and retries stalled rounds. Note the a-node's CheckTokens is
// *not* driven from here — it runs on the trusted node's own timer
// (the robot layer invokes it unconditionally), because a compromised
// c-node would simply stop calling it.
//
// The tick passed in is the robot's local protocol clock (the trusted
// clock), never the engine clock — mixing the two is the PR 2 bug
// class that reboundlint's clockdomain analyzer exists to catch.
//
//rebound:clock now=trusted
func (e *Engine) Tick(now wire.Tick) {
	e.now = now
	if e.cfg.TAudit > 0 && now%e.cfg.TAudit == wire.Tick(e.id)%e.cfg.TAudit {
		e.startRound(now)
	}
	if e.round != nil && !e.round.covered &&
		now >= e.round.lastAsk+e.cfg.RetryDelay &&
		len(e.round.tokens) <= e.cfg.Fmax {
		e.solicit(now)
	}
}

//rebound:clock now=trusted
func (e *Engine) startRound(now wire.Tick) {
	authS, okS := e.snode.MakeAuthenticator()
	authA, okA := e.anode.MakeAuthenticator()
	if !okS || !okA {
		return // keyless or safe mode: nothing to do
	}
	if e.round != nil && !e.round.covered {
		e.stats.RoundsAbandoned++
		if e.trace != nil {
			e.trace.Emit(obs.Event{Tick: now, Robot: e.id,
				Kind: obs.EvAuditRoundAbandoned, Value: int64(len(e.round.tokens))})
		}
	}
	// Log the flush position. MakeAuthenticator flushed both chains,
	// resetting their batch phase; auditors replaying a segment that
	// spans this point (because this round's checkpoint never got
	// covered) must flush their replicas here or the batched tops
	// cannot match.
	e.logAppend(wire.LogEntry{Kind: wire.EntryMark})
	if e.trace != nil {
		e.trace.Emit(obs.Event{Tick: now, Robot: e.id, Kind: obs.EvCheckpointFlush})
	}
	// The log encodes the checkpoint once, on entry, with the
	// controller's state appended straight into it; the round ships
	// those bytes (and next round, as its start, the same ones again).
	// The encoding may reuse the storage of the start the last cover
	// superseded, which is this round's encStart if that cover was of the
	// current round: nothing reads it between the cover and here, and the
	// round is reset below before anything can.
	seg, err := e.log.SegmentTo(e.log.AddCheckpoint(now, authS, authA, e.ctrl))
	if err != nil {
		return // unreachable: we just added the checkpoint
	}
	// The round starts on seg.Encoded itself, an alias of the log's
	// window, and stops reading it at the first request askOne builds
	// (see there). The alias is only safe while nothing rewrites the
	// window: MarkCovered compacts it in place (Log.Append only extends
	// it), and MarkCovered is reached only from onAuditResponse, i.e. from
	// the c-node hook, i.e. from a send — and nothing between SegmentTo
	// and askOne's first Encode sends.
	round := e.round
	if round == nil {
		// A round's tokens and the tokens covering its start are f_max+1
		// each: one allocation holds both, each capped at its half so
		// neither grows into the other.
		n := e.cfg.Fmax + 1
		toks := make([]wire.Token, 0, 2*n)
		round = &auditRound{
			tokens:   toks[:0:n],
			startTok: toks[n:n],
			asked:    make([]wire.RobotID, 0, n),
		}
		e.round = round
	}
	*round = auditRound{
		hash:     seg.EndHash,
		startAt:  now,
		fromBoot: seg.FromBoot,
		encEnd:   seg.EndEnc,
		segment:  seg.Encoded,
		startTok: round.startTok[:0],
		tokens:   round.tokens[:0],
		asked:    round.asked[:0],
	}
	if seg.Start != nil {
		round.encStart = seg.StartEnc
		round.startTok = append(round.startTok, seg.Start.Tokens...)
	}
	e.rounds++
	e.stats.RoundsStarted++
	if e.trace != nil {
		e.trace.Emit(obs.Event{Tick: now, Robot: e.id,
			Kind: obs.EvAuditRoundStart, Value: int64(len(round.segment))})
	}
	e.solicit(now)
	// No request was built (no candidate in earshot, or every ask was
	// rate-limited), so nothing was sent and the window is as SegmentTo
	// left it: the round takes its own copy now, before anything can
	// cover a checkpoint. reqTail != nil keeps meaning "an ask was
	// encoded", in the engine and in the snapshot codec. A round covered
	// inside its own solicit (sends that deliver synchronously) did ask,
	// and has already let go of its bytes; the window it would copy is
	// the one MarkCovered just compacted.
	if round.reqTail == nil && !round.covered {
		round.segment = append([]byte(nil), seg.Encoded...)
	}
}

// auditorCandidates returns recently-heard peers in ascending ID
// order. The list is built from claimed frame sources — unverified,
// but a wrong candidate merely wastes one request and the retry loop
// moves on. It lives in engine scratch, valid until the next call.
func (e *Engine) auditorCandidates() []wire.RobotID {
	if cap(e.candidates) < cap(e.heard) {
		e.candidates = make([]wire.RobotID, 0, cap(e.heard))
	}
	ids := e.candidates[:0]
	for _, p := range e.heard {
		if p.id == e.id || p.id == wire.Broadcast {
			continue
		}
		if p.at+e.cfg.HeardWindow > e.now {
			ids = append(ids, p.id)
		}
	}
	e.candidates = ids
	return ids
}

// solicit sends audit requests until f_max+1 auditors have been asked
// (beyond those that already answered). Extra tokens cause no harm
// (§3.7), so over-asking on retry is safe.
//
//rebound:clock now=trusted
func (e *Engine) solicit(now wire.Tick) {
	r := e.round
	need := e.cfg.Fmax + 1 - len(r.tokens)
	if need <= 0 {
		return
	}
	candidates := e.auditorCandidates()
	// Rotate the starting point per round AND per robot so auditing
	// load spreads evenly across neighbors. The per-robot term is
	// load-bearing: rotating by round alone makes every auditee in a
	// dense flock converge on the same few auditors each round, which
	// saturates their serve budgets and starves the flock. The rotation
	// is driven by e.rounds, a plain field — NOT the roundsStarted obs
	// counter, which Instrument rebinds (discarding its count): a
	// mid-run Instrument would silently reset the rotation phase and
	// re-converge the flock on the same auditors.
	if n := len(candidates); n > 1 {
		off := (e.rounds*(1+e.cfg.Fmax) + int(e.id)*7) % n
		// Rotated left by off in place: reversing both parts and then
		// the whole puts candidates[off:] ahead of candidates[:off].
		slices.Reverse(candidates[:off])
		slices.Reverse(candidates[off:])
		slices.Reverse(candidates)
	}
	sent := 0
	// earlier lists, in order, the candidates an earlier pass asked,
	// written over the front of candidates as the loop passes them.
	earlier := candidates[:0]
	for _, target := range candidates {
		if sent >= need {
			break
		}
		if !r.markAsked(target) {
			earlier = append(earlier, target)
			continue
		}
		if e.askOne(target) {
			sent++
		}
	}
	// Candidates exhausted: allow re-asking peers an earlier pass asked
	// that have not produced a token yet (they may have been briefly out
	// of range) — but never a peer asked in this same pass, which would
	// duplicate the request within one tick and double-count
	// AuditsRequested.
	for _, target := range earlier {
		if sent >= need {
			break
		}
		if _, got := r.tokenAt(target); got {
			continue
		}
		if e.askOne(target) {
			sent++
		}
	}
	r.lastAsk = now
}

func (e *Engine) askOne(target wire.RobotID) bool {
	req, ok := e.anode.MakeTokenRequest(target)
	if !ok {
		return false // rate-limited or keyless
	}
	r := e.round
	msg := wire.AuditRequest{
		Auditee:         e.id,
		Auditor:         target,
		Req:             req,
		FromBoot:        r.fromBoot,
		StartCheckpoint: r.encStart,
		StartTokens:     r.startTok,
		EndCheckpoint:   r.encEnd,
		Segment:         r.segment,
	}
	// The head of the request (kind, IDs, the per-auditor token
	// request) is a few dozen bytes; the tail (checkpoints, covering
	// tokens, segment) can be kilobytes and is identical for every
	// auditor this round. The round's first request is encoded whole,
	// straight from wherever r.segment points (the log window, or the
	// round's own copy after a fallback or a restore), and its tail then
	// *is* the round's copy: reqTail and segment become views of that
	// payload, taken before the send below can reach the c-node hook.
	// Every later request copies the tail behind its own head, so each
	// frame carries a whole contiguous payload of its own.
	//
	// The views are read-only. A payload handed to send is never written
	// again by anyone — the medium hands the same slice to every receiver
	// in range — so the sender may go on reading it, and must not write,
	// reuse, pool or split it. wire's TestAuditRequestTailSplit pins
	// Encode() == EncodeWithTail(tail of Encode()).
	var payload []byte
	if r.reqTail == nil {
		payload = msg.Encode()
		_, tail, err := wire.SplitAuditRequest(payload)
		if err != nil {
			return false // unreachable: payload is a request we just encoded
		}
		r.reqTail = tail
		r.segment = tail[len(tail)-len(r.segment):]
	} else {
		payload = msg.EncodeWithTail(r.reqTail)
	}
	f := wire.Frame{Src: e.id, Dst: target, Flags: wire.FlagAudit, Payload: payload}
	if _, ok := e.send.SendWirelessEnc(f); !ok {
		return false
	}
	e.stats.AuditsRequested++
	return true
}

// serveBudgetOK enforces the §5.1 serving assumption: at most
// ServeLimit audits per TVal window. The check is cheap and runs
// before any expensive replay work, so audit floods cost the victim
// almost nothing.
func (e *Engine) serveBudgetOK() bool {
	if e.cfg.ServeLimit <= 0 {
		return true
	}
	keep := e.served[:0]
	for _, t := range e.served {
		if t+e.cfg.TVal > e.now {
			keep = append(keep, t)
		}
	}
	e.served = keep
	return len(e.served) < e.cfg.ServeLimit
}

// onAuditRequest is the auditor role's one entry point (§3.7), fed the
// raw request payload. The expensive part — decode, token cover,
// deterministic replay — has an auditor-independent outcome, so when a
// shared AuditCache is attached the verdict (and the checkpoint hash
// token minting binds to) is computed once per distinct request
// swarm-wide; the remaining f_max auditors decode only the
// per-auditor head, hash the raw tail, and skip straight to minting.
// Everything auditor-local (identity checks, the serve budget,
// IssueToken's own MAC verification of the per-auditor token request,
// token minting) runs on every request, hit or miss.
//
// With no cache attached, or while this a-node lacks the mission key,
// the lookup and the store are skipped and every request is replayed.
// A keyless auditor's verifySegment rejects everything (its MAC checks
// all fail), and those key-dependent verdicts must not poison a cache
// shared with keyed robots. Any failure is a silent ignore, as in the
// paper: no correct auditor will accept a bad request, so the
// requestor's tokens simply expire.
//
// The returned perf phase attributes the serve's wall-clock cost:
// audit-cache-hit for a cached verdict, audit-cache-miss for a replay,
// audit-serve for a request refused or dropped before a verdict. The
// caller (OnFrameEnc) times the span.
func (e *Engine) onAuditRequest(payload []byte) perf.Phase {
	head, tail, err := wire.SplitAuditRequest(payload)
	if err != nil {
		return perf.PhaseAuditServe
	}
	if head.Auditor != e.id || head.Req.Auditor != e.id ||
		head.Req.Auditee != head.Auditee || head.Auditee == e.id || !e.serveBudgetOK() {
		// A request whose tail does not decode is dropped, not refused.
		if e.request.Decode(payload) == nil {
			e.stats.AuditsRefused++
		}
		e.releaseRequest()
		return perf.PhaseAuditServe
	}
	cache := e.acache
	if !e.anode.HasKey() {
		cache = nil
	}
	var key [32]byte
	if cache != nil {
		key = auditKey(head.Auditee, head.Req.T, tail)
		if v, hit := cache.Lookup(key); hit {
			e.finishAudit(head.Auditee, head.Req, v)
			return perf.PhaseAuditCacheHit
		}
	}
	a := &e.request
	if err := a.Decode(payload); err != nil {
		return perf.PhaseAuditServe // a failed decode holds no view of payload
	}
	v := AuditVerdict{OK: e.verifySegment(a)}
	if v.OK {
		v.HCkpt = cryptolite.SHA1Sum(a.EndCheckpoint)
	}
	e.releaseRequest()
	if cache != nil {
		cache.Store(key, v)
	}
	e.finishAudit(head.Auditee, head.Req, v)
	return perf.PhaseAuditCacheMiss
}

// releaseRequest drops the request scratch's views of the payload it
// was decoded from, keeping its token storage for the next request.
func (e *Engine) releaseRequest() {
	e.request = wire.AuditRequest{StartTokens: e.request.StartTokens[:0]}
}

// finishAudit is the auditor-local epilogue of a hit and a replay alike:
// mint and send the token on a positive verdict.
// IssueToken re-verifies the per-auditor request MAC on the a-node, so
// a cache hit never bypasses any trusted-node check.
func (e *Engine) finishAudit(auditee wire.RobotID, req wire.TokenRequest, v AuditVerdict) {
	if !v.OK {
		e.stats.AuditsRefused++
		return
	}
	tok, ok := e.anode.IssueToken(req, v.HCkpt)
	if !ok {
		e.stats.AuditsRefused++
		return
	}
	resp := wire.AuditResponse{Auditor: e.id, Auditee: auditee, OK: true, Tok: tok}
	e.send.SendWirelessEnc(wire.Frame{Src: e.id, Dst: auditee, Flags: wire.FlagAudit, Payload: resp.AppendEncode(e.slab.Payload(wire.AuditResponseSize))})
	e.stats.AuditsServed++
	if e.cfg.ServeLimit <= 0 {
		return // unlimited: nothing reads the window, so nothing is kept
	}
	if cap(e.served) < e.cfg.ServeLimit {
		// serveBudgetOK keeps at most ServeLimit timestamps.
		e.served = slices.Grow(e.served, e.cfg.ServeLimit-len(e.served))
	}
	e.served = append(e.served, e.now)
}

// verifySegment runs the content checks of the auditor role: decode
// the checkpoints and segment, validate the start-covering tokens, and
// deterministically replay the segment. The verdict is a function of
// the request content, the protocol parameters, and the shared mission
// key only — never of which auditor runs it (the replica controller is
// rebuilt from the request, and every MAC involved uses the
// swarm-shared mission key) — which is what makes it cacheable.
//
// The checkpoint hashes here and at the call sites run on the stdlib
// digest (SHA1Sum): this is the untrusted c-node hashing kilobytes, not
// a trusted MCU.
func (e *Engine) verifySegment(a *wire.AuditRequest) bool {
	end, err := auditlog.DecodeCheckpoint(a.EndCheckpoint)
	if err != nil {
		return false
	}
	req := replay.Request{
		Auditee:  a.Auditee,
		ReqT:     a.Req.T,
		FromBoot: a.FromBoot,
		End:      end,
	}
	if !a.FromBoot {
		start, err := auditlog.DecodeCheckpoint(a.StartCheckpoint)
		if err != nil {
			return false
		}
		startHash := cryptolite.SHA1Sum(a.StartCheckpoint)
		if err := replay.TokensCoverStart(a.Auditee, startHash, a.StartTokens,
			e.cfg.Fmax, e.anode.VerifyToken); err != nil {
			return false
		}
		req.Start = &start
	}
	cfg := replay.Config{
		Factory:            e.factory,
		BatchSize:          e.cfg.BatchSize,
		AuthSlack:          e.cfg.AuthSlack,
		CheckAuthenticator: e.checkAuth,
	}
	if e.acache != nil {
		cfg.Machine = &e.acache.miss.machine
	}
	// The entries land in the swarm-shared decode scratch when a cache
	// is attached, and the replay runs on its machine.
	// replay.Verify reads the entries and retains nothing; the scratch
	// lets go of them (views of the request payload) as soon as it
	// returns, or as soon as decoding fails.
	req.Entries, err = e.acache.decodeSegment(a.Segment)
	ok := err == nil && replay.Verify(req, cfg) == nil
	e.acache.releaseSegment()
	return ok
}

// onAuditResponse is the auditee receiving a token. A compromised
// auditor could return garbage, so the token is validated on the
// a-node before installation (§3.7).
func (e *Engine) onAuditResponse(resp wire.AuditResponse) {
	r := e.round
	if r == nil || !resp.OK || resp.Auditee != e.id || resp.Tok.HCkpt != r.hash {
		return
	}
	if !e.anode.InstallToken(resp.Tok) {
		e.stats.TokensRejected++
		return
	}
	e.stats.TokensInstalled++
	r.addToken(resp.Tok)
	if e.trace != nil {
		e.trace.Emit(obs.Event{Tick: e.now, Robot: e.id, Kind: obs.EvTokenGranted,
			Peer: resp.Tok.Auditor, Value: int64(len(r.tokens))})
	}
	if !r.covered && len(r.tokens) >= e.cfg.Fmax+1 {
		if e.log.MarkCovered(r.hash, r.tokens) == nil {
			r.covered = true
			// A covered round never solicits again, so nothing reads its
			// request bytes any more: the first request's payload goes.
			r.reqTail, r.segment = nil, nil
			e.stats.RoundsCovered++
			e.roundLatency.Observe(float64(e.now - r.startAt))
			if e.trace != nil {
				e.trace.Emit(obs.Event{Tick: e.now, Robot: e.id,
					Kind: obs.EvAuditRoundComplete, Value: int64(len(r.tokens))})
			}
		}
	}
}
