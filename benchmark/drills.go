package main

import (
	"errors"

	rr "roborebound"
	"roborebound/internal/auditlog"
	"roborebound/internal/core"
	"roborebound/internal/cryptolite"
	"roborebound/internal/flocking"
	"roborebound/internal/geom"
	"roborebound/internal/geom/spatial"
	"roborebound/internal/obs/perf"
	"roborebound/internal/radio"
	"roborebound/internal/replay"
	"roborebound/internal/runner"
	"roborebound/internal/serve"
	"roborebound/internal/sim"
	"roborebound/internal/trusted"
	"roborebound/internal/wire"
)

// Drills time one layer's exported functions from outside, on inputs
// built from the workload's own layout (its grid positions, state
// broadcasts the size the controllers send, an audit round captured
// from running engines). Each drill gets drillNs of wall time; the
// reported value is the median over its samples.
const (
	drillNs      = 100e6
	quickDrillNs = 1e6
	// drillsTotalNs is the share of a traced window the drills are
	// expected to take, set-up of their harnesses included.
	drillsTotalNs = 3e9
)

func drillsNs(r *run) int64 {
	if r.cfg.quick {
		return 0
	}
	return drillsTotalNs
}

// drillBudgetNs is one drill's wall time.
func drillBudgetNs(r *run) int64 {
	if r.cfg.quick {
		return quickDrillNs
	}
	return drillNs
}

// sink keeps the compiler from discarding a drill's pure calls.
var sink uint64

// drill times fn, batch calls to a sample, for about the drill budget
// (three samples at least) under one span, and returns the median
// nanoseconds per call.
func drill(r *run, parent int, name string, batch int, fn func()) float64 {
	budget := drillBudgetNs(r)
	id := r.spans.begin(parent, "drill", name)
	defer r.spans.end(id)
	var perCall []float64
	start := perf.Now()
	for len(perCall) < 3 || perf.Now()-start < budget {
		t0 := perf.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		perCall = append(perCall, float64(perf.Now()-t0)/float64(batch))
	}
	return median(perCall)
}

// runDrills runs every layer drill at n robots on a grid of the given
// pitch and sets the drill metrics.
func runDrills(r *run, parent int, n int, pitchM float64) {
	root := r.spans.begin(parent, "drill", "drills")
	defer r.spans.end(root)
	m := r.m

	// sim, radio, spatial: the workload's own layout.
	goal := geom.V(220, 220)
	m.set("sim.build_ms", ms(drill(r, root, "sim.build", 1, func() {
		s := rr.FlockScenario{N: n, Spacing: pitchM, Goal: goal, Protected: true, Seed: r.cfg.seed, Fmax: 2, SpatialIndex: true}.Build()
		sink += uint64(len(s.IDs()))
	})))

	positions := rr.GridPositions(n, pitchM, geom.Vec2{})
	wc := sim.DefaultWorldConfig()
	wc.TicksPerSecond = ticksPerSecond
	wc.SpatialIndex = true
	world := sim.NewWorld(wc)
	ids := make([]wire.RobotID, n)
	for i, p := range positions {
		ids[i] = wire.RobotID(i + 1)
		world.AddBody(ids[i], p)
	}
	now := wire.Tick(0)
	m.set("sim.world_step_us", us(drill(r, root, "sim.world_step", 1, func() {
		world.Step(now)
		now++
	})))

	params := radio.DefaultParams()
	params.SpatialIndex = true
	medium := radio.NewMedium(params, world.Position, r.cfg.seed)
	state := wire.StateMsg{Src: 1, PosX: 1, PosY: 2, VelX: 3, VelY: 4}
	broadcast := wire.Frame{Src: 1, Dst: wire.Broadcast, Payload: state.Encode()}
	deliveries := 0
	m.set("radio.deliver_round_us", us(drill(r, root, "radio.deliver_round", 1, func() {
		for _, id := range ids {
			f := broadcast
			f.Src = id
			medium.Send(id, f)
		}
		deliveries = len(medium.Deliver(ids))
	})))
	m.set("radio.deliveries_per_round", float64(deliveries))

	var grid spatial.Grid
	reach := params.RangeM()
	m.set("spatial.build_us", us(drill(r, root, "spatial.build", 1, func() {
		grid.Reset(reach / 2)
		for i, p := range positions {
			grid.Add(int32(i), p)
		}
		grid.Build()
	})))
	var members []spatial.Member
	next := 0
	m.set("spatial.within_ns", drill(r, root, "spatial.within", 64, func() {
		members = grid.Within(positions[next%n], reach, members[:0])
		sink += uint64(len(members))
		next++
	}))

	// wire, cryptolite: fixed inputs.
	m.set("wire.frame_codec_ns", drill(r, root, "wire.frame_codec", 256, func() {
		f, err := wire.DecodeFrame(broadcast.Encode())
		if err != nil {
			panic(err) // a frame this package just encoded
		}
		sink += uint64(f.Src)
	}))
	small, large := make([]byte, wire.StateMsgSize), make([]byte, 2048)
	block := make([]byte, 64)
	m.set("cryptolite.sha1_64B_ns", drill(r, root, "cryptolite.sha1_64B", 256, func() { sink += uint64(cryptolite.SHA1(block)[0]) }))
	m.set("cryptolite.sha1_2KB_ns", drill(r, root, "cryptolite.sha1_2KB", 16, func() { sink += uint64(cryptolite.SHA1(large)[0]) }))
	macDrill(r, root)

	// trusted: the a-node's per-frame paths and the chain's entry mix
	// of one busy tick (a sensor reading, five receives, a send, an
	// actuator command).
	h := newProtoHarness(2, nil)
	m.set("trusted.recv_us", us(drill(r, root, "trusted.recv", 256, func() { h.anodes[1].RecvWireless(broadcast) })))
	m.set("trusted.send_us", us(drill(r, root, "trusted.send", 256, func() {
		h.queue = h.queue[:0] // the harness's NIC; nothing reads it here
		h.anodes[0].SendWirelessEnc(broadcast)
	})))
	type entry struct {
		kind    uint8
		payload []byte
	}
	busyTick := []entry{{wire.EntrySensor, make([]byte, wire.SensorReadingSize)}}
	for i := 0; i < 5; i++ {
		busyTick = append(busyTick, entry{wire.EntryRecv, small})
	}
	busyTick = append(busyTick, entry{wire.EntrySend, small}, entry{wire.EntryActuator, make([]byte, wire.ActuatorCmdSize)})
	chain := trusted.NewChain(trusted.DefaultBatchSize)
	m.set("trusted.chain_append_ns", drill(r, root, "trusted.chain_append", 32, func() {
		for _, e := range busyTick {
			chain.AppendEntry(e.kind, e.payload)
		}
		sink += uint64(chain.Flush()[0])
	})/float64(len(busyTick)))

	// core, replay: twelve engines in zero-latency loopback.
	m.set("core.loopback_tick_us", us(drill(r, root, "core.loopback_tick", 8, newProtoHarness(12, nil).tick)))
	auditDrills(r, root)

	m.set("runner.dispatch_us", us(drill(r, root, "runner.dispatch", 1, func() {
		out := runner.All(matrixWorkers, 168, func(i int) int { return i })
		sink += uint64(len(out))
	})))

	// serve: the tiny job without HTTP or scheduler, and its decoder.
	job := tinyJob(r.cfg.seed)
	m.set("serve.direct_job_ms", ms(drill(r, root, "serve.direct_job", 4, func() {
		out, err := serve.RunJobDirect(job, nil)
		if err != nil {
			panic(err) // the request is this package's own
		}
		sink += uint64(len(out.Result))
	})))
	encoded, err := job.Encode()
	if err != nil {
		panic(err)
	}
	m.set("serve.decode_us", us(drill(r, root, "serve.decode", 64, func() {
		req, err := serve.DecodeJobRequest(encoded)
		if err != nil {
			panic(err)
		}
		sink += req.Seed
	})))
}

// macDrill times LightMAC through the facade's own host-side
// measurement (MeasureMACLatency, Fig. 5a's sizes): keyed primitives
// may be minted only inside internal/trusted and by that audited
// helper, and the benchmark adds no exemption of its own. For the same
// reason there is no bare PRESENT-80 block drill; the 27 B and 2 KB
// pair still separates LightMAC's fixed cost from its per-byte cost.
func macDrill(r *run, parent int) {
	const itersPerSample = 100
	budget := drillBudgetNs(r)
	id := r.spans.begin(parent, "drill", "cryptolite.lightmac")
	defer r.spans.end(id)
	var small, large []float64
	for start := perf.Now(); len(small) < 3 || perf.Now()-start < budget; {
		for _, t := range rr.MeasureMACLatency(itersPerSample) {
			switch t.Bytes {
			case wire.StateMsgSize:
				small = append(small, t.HostNs)
			case 2048:
				large = append(large, t.HostNs)
			}
		}
	}
	r.m.set("cryptolite.lightmac_27B_ns", median(small))
	r.m.set("cryptolite.lightmac_2KB_ns", median(large))
}

// auditDrills captures one audit round (the f_max+1 per-auditor
// requests for one segment) from running engines and times serving
// it: the first request against a fresh AuditCache replays the
// segment (a miss), the others reuse the verdict (hits). replay.Verify
// is timed on the same request, decoded the way core decodes it.
func auditDrills(r *run, parent int) {
	h := newProtoHarness(12, func(cfg *core.Config) {
		// Re-serving one round many times must not trip the flood guard.
		cfg.ServeLimit = 0
	})
	frames := h.captureAuditRound(h.cfg.Fmax + 1)
	var missNs, hitNs []float64
	id := r.spans.begin(parent, "drill", "core.audit_round")
	budget := 2 * drillBudgetNs(r)
	start := perf.Now()
	for len(missNs) < 3 || perf.Now()-start < budget {
		cache := core.NewAuditCache(8) // one round's lifetime
		for _, eng := range h.engines {
			eng.SetAuditCache(cache)
		}
		h.queue = h.queue[:0]
		for k, f := range frames {
			t0 := perf.Now()
			h.engines[int(f.Dst)-1].OnFrameEnc(f, nil)
			d := float64(perf.Now() - t0)
			if k == 0 {
				missNs = append(missNs, d)
			} else {
				hitNs = append(hitNs, d)
			}
		}
	}
	r.spans.end(id)
	r.m.set("core.audit_miss_us", us(median(missNs)))
	r.m.set("core.audit_hit_us", us(median(hitNs)))

	req, cfg, err := h.replayRequest(frames[0])
	if err != nil {
		r.breakf("replay drill: %v", err)
		return
	}
	r.m.set("replay.segment_entries", float64(len(req.Entries)))
	r.m.set("replay.verify_us", us(drill(r, parent, "replay.verify", 1, func() {
		if err := replay.Verify(req, cfg); err != nil {
			panic(err) // the engines accepted this very request
		}
	})))
}

// protoHarness wires n protocol engines to each other with
// zero-latency frame exchange in ascending-ID order: the whole
// protocol plane (broadcast receive, chains, rounds, replays, tokens)
// with no physics and no radio.
type protoHarness struct {
	now     wire.Tick
	cfg     core.Config
	factory flocking.Factory
	engines []*core.Engine
	anodes  []*trusted.ANode
	snodes  []*trusted.SNode
	queue   []wire.Frame
}

var drillMaster = []byte("benchmark-drill-master")

func newProtoHarness(n int, tune func(*core.Config)) *protoHarness {
	cfg := core.DefaultConfig(ticksPerSecond)
	cfg.Fmax = 2
	cfg.AutoServeLimit()
	if tune != nil {
		tune(&cfg)
	}
	h := &protoHarness{cfg: cfg, factory: flocking.Factory{Params: flocking.DefaultParams(ticksPerSecond, 4, geom.V(50, 50))}}
	var mission [trusted.MissionKeySize]byte
	copy(mission[:], "benchmark-drill-mission")
	sealed := trusted.SealMissionKey(drillMaster, mission, 7, 1)
	clock := func() wire.Tick { return h.now }
	cache := core.NewAuditCache(0)
	for i := 0; i < n; i++ {
		id := wire.RobotID(i + 1)
		sn := trusted.NewSNode(cfg.BatchSize, clock)
		var eng *core.Engine
		an := trusted.NewANode(cfg.ANodeConfig(), clock,
			func(f wire.Frame) { h.queue = append(h.queue, f) },
			func(f wire.Frame, enc []byte) { eng.OnFrameEnc(f, enc) },
			nil, nil)
		sn.LoadMasterKey(drillMaster, id)
		an.LoadMasterKey(drillMaster, id)
		if !sn.LoadMissionKey(sealed) || !an.LoadMissionKey(sealed) {
			panic("benchmark: drill mission key rejected")
		}
		eng = core.NewEngine(id, cfg, h.factory, sn, an, an.SendWirelessEnc)
		eng.SetAuditCache(cache)
		h.engines = append(h.engines, eng)
		h.anodes = append(h.anodes, an)
		h.snodes = append(h.snodes, sn)
	}
	return h
}

// tick delivers last tick's frames, then sensor-polls and
// protocol-ticks every engine.
func (h *protoHarness) tick() {
	frames := h.queue
	h.queue = nil
	for _, f := range frames {
		for i, an := range h.anodes {
			id := wire.RobotID(i + 1)
			if id == f.Src || (f.Dst != wire.Broadcast && f.Dst != id) {
				continue
			}
			an.RecvWireless(f)
		}
	}
	for i, eng := range h.engines {
		id := wire.RobotID(i + 1)
		reading := wire.SensorReading{Time: h.now, PosX: float64(id), PosY: float64(id)}
		if fwd, enc, ok := h.snodes[i].PollSensorsEnc(reading); ok {
			eng.OnSensorReadingEnc(fwd, enc)
		}
		eng.Tick(h.now)
		h.anodes[i].CheckTokens()
	}
	h.now++
}

// captureAuditRound runs past the from-boot rounds, then returns the
// `want` per-auditor request frames of one round of robot 1.
func (h *protoHarness) captureAuditRound(want int) []wire.Frame {
	for warm := 0; warm < 100; warm++ {
		h.tick()
	}
	for t := 0; t < 200; t++ {
		h.tick()
		var reqs []wire.Frame
		for _, f := range h.queue {
			if f.Src != 1 || !f.IsAudit() {
				continue
			}
			if _, err := wire.DecodeAuditRequest(f.Payload); err == nil {
				reqs = append(reqs, f)
			}
		}
		if len(reqs) >= want {
			return reqs[:want]
		}
	}
	panic("benchmark: no full audit round captured")
}

// replayRequest decodes an audit-request frame into the replay
// layer's request, as core does before it calls replay.Verify.
func (h *protoHarness) replayRequest(f wire.Frame) (replay.Request, replay.Config, error) {
	var req replay.Request
	a, err := wire.DecodeAuditRequest(f.Payload)
	if err != nil {
		return req, replay.Config{}, err
	}
	end, err := auditlog.DecodeCheckpoint(a.EndCheckpoint)
	if err != nil {
		return req, replay.Config{}, err
	}
	req = replay.Request{Auditee: a.Auditee, ReqT: a.Req.T, FromBoot: a.FromBoot, End: end}
	if !a.FromBoot {
		start, err := auditlog.DecodeCheckpoint(a.StartCheckpoint)
		if err != nil {
			return req, replay.Config{}, err
		}
		req.Start = &start
	}
	if req.Entries, err = wire.DecodeLogEntries(a.Segment); err != nil {
		return req, replay.Config{}, err
	}
	if len(req.Entries) == 0 {
		return req, replay.Config{}, errors.New("captured audit round has an empty segment")
	}
	auditor := h.anodes[int(f.Dst)-1]
	return req, replay.Config{
		Factory:            h.factory,
		BatchSize:          h.cfg.BatchSize,
		AuthSlack:          h.cfg.AuthSlack,
		CheckAuthenticator: auditor.CheckAuthenticator,
	}, nil
}
