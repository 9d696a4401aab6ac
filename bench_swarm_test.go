package roborebound

// Protocol-plane benchmarks: the tentpole's before/after pair. The
// reference plane (buffered chains, per-round segment re-encodes,
// per-auditor request encodes, no audit cache) is the pre-optimization
// protocol pipeline kept alive as the oracle; the fast plane is the
// streaming/cached pipeline the simulation now runs by default. `make
// bench-swarm` records the suite into the committed BENCH_swarm.json;
// CI's bench gate re-runs the pairs and asserts the fast protocol
// plane stays ≥5× faster than reference — a machine-independent
// within-run ratio, like the scale gate's.
//
// Four layers:
//   - BenchmarkSwarm_Audit_* — serving one audit round (f_max+1
//     auditors, identical segment), the path the tentpole rebuilt.
//     This is where the ≥5× contract is enforced.
//   - BenchmarkSwarm_Loopback_* — N engines in zero-latency loopback,
//     the full protocol plane with no physics or radio (informational:
//     the shared MAC-verify receive path dilutes the ratio).
//   - BenchmarkSwarm_Chain_* — the chain append/flush micro pair
//     (buffered copies + batch hash vs streaming hash).
//   - BenchmarkSwarm_Sim_* — whole 1000-robot chaos cells per plane,
//     recording what the pipeline buys end to end (physics and radio
//     dilute the win further; that context belongs next to the
//     headline numbers).

import (
	"testing"

	"roborebound/internal/core"
	"roborebound/internal/cryptolite"
	"roborebound/internal/faultinject"
	"roborebound/internal/flocking"
	"roborebound/internal/geom"
	"roborebound/internal/trusted"
	"roborebound/internal/wire"
)

// protoHarness wires n protocol engines to each other with
// zero-latency frame exchange, like the core package's test harness
// but with deterministic (ID-ordered) iteration and an optional
// shared audit cache — the same shape the Sim gives real robots.
type protoHarness struct {
	now     wire.Tick
	cfg     core.Config
	engines []*core.Engine
	anodes  []*trusted.ANode
	snodes  []*trusted.SNode
	cache   *core.AuditCache
	queue   []wire.Frame
}

var benchMaster = []byte("swarm-bench-master")

func newProtoHarness(n int, reference bool, tune func(*core.Config)) *protoHarness {
	cfg := core.DefaultConfig(4)
	cfg.Fmax = 2
	cfg.Reference = reference
	cfg.AutoServeLimit()
	if tune != nil {
		tune(&cfg)
	}
	h := &protoHarness{cfg: cfg}
	var mission [trusted.MissionKeySize]byte
	copy(mission[:], "swarm-bench-mission")
	sealed := trusted.SealMissionKey(benchMaster, mission, 7, 1)
	clock := func() wire.Tick { return h.now }
	factory := flocking.Factory{Params: flocking.DefaultParams(4, 4, geom.V(50, 50))}
	var cache *core.AuditCache
	if !reference {
		cache = core.NewAuditCache(0)
		h.cache = cache
	}
	for i := 0; i < n; i++ {
		id := wire.RobotID(i + 1)
		sn := trusted.NewSNode(cfg.BatchSize, clock)
		var eng *core.Engine
		an := trusted.NewANode(cfg.ANodeConfig(), clock,
			func(f wire.Frame) { h.queue = append(h.queue, f) },
			func(f wire.Frame, enc []byte) { eng.OnFrameEnc(f, enc) },
			nil, nil)
		if reference {
			sn.UseBufferedChain()
			an.UseBufferedChain()
		}
		sn.LoadMasterKey(benchMaster, id)
		an.LoadMasterKey(benchMaster, id)
		if !sn.LoadMissionKey(sealed) || !an.LoadMissionKey(sealed) {
			panic("mission key rejected")
		}
		eng = core.NewEngine(id, cfg, factory, sn, an, an.SendWirelessEnc)
		eng.SetAuditCache(cache)
		h.engines = append(h.engines, eng)
		h.anodes = append(h.anodes, an)
		h.snodes = append(h.snodes, sn)
	}
	return h
}

// tick runs one protocol round in ascending-ID order: deliver last
// tick's frames, sensor-poll and protocol-tick every engine.
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

// benchSwarmLoopback runs n loopback engines for `ticks` protocol
// ticks per iteration at the paper's default parameters — the full
// protocol-plane cost (broadcast receive, chains, rounds, replays,
// tokens) with no physics or radio. Informational: the live receive
// path (MAC verification per frame) is identical on both planes, so
// the end-to-end protocol ratio is diluted relative to the audit-path
// pair below, where the gate lives.
func benchSwarmLoopback(b *testing.B, n, ticks int, reference bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := newProtoHarness(n, reference, nil)
		for t := 0; t < ticks; t++ {
			h.tick()
		}
		covered := 0
		for j, eng := range h.engines {
			covered += int(eng.Stats().RoundsCovered)
			if h.anodes[j].InSafeMode() {
				b.Fatal("bench engine wrongly in safe mode")
			}
		}
		if covered == 0 {
			b.Fatal("no rounds covered; benchmark measures nothing")
		}
	}
}

func BenchmarkSwarm_Loopback_Reference(b *testing.B) { benchSwarmLoopback(b, 12, 200, true) }
func BenchmarkSwarm_Loopback_Fast(b *testing.B)      { benchSwarmLoopback(b, 12, 200, false) }

// auditTune is the audit-path pair's configuration: f_max = 7 and a
// 16 s audit period — the expensive corner of the paper's Fig. 6
// sweeps: eight auditors per round, each replaying a long segment —
// with the serve budget disabled so the benchmark can
// re-serve the same round b.N times without tripping the flood guard
// (the guard is an orthogonal, O(1) check; it protects robots, not
// benchmarks).
func auditTune(cfg *core.Config) {
	cfg.Fmax = 7
	cfg.TAudit = 64
	cfg.AuthSlack = 64
	// T_val must cover at least two audit periods or tokens expire
	// before the next round can land (same invariant DefaultConfig
	// maintains at the default period).
	cfg.TVal = 160
	cfg.ServeLimit = 0
}

// captureAuditRound warms the harness up past its from-boot rounds,
// then returns the f_max+1 per-auditor request frames of one auditee
// round — the identical-tail fan-out whose serving cost the tentpole
// rebuilt. Frames are captured from the queue right after the tick
// that solicited them, so they all belong to one round.
func captureAuditRound(h *protoHarness, want int) []wire.Frame {
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
	panic("no full audit round captured")
}

// benchSwarmAudit measures serving one audit round: the same segment,
// fanned out to f_max+1 auditors (per-auditor request head, identical
// tail). One iteration = every auditor decodes and answers its
// request. On the reference plane each auditor re-replays the segment
// from scratch; on the fast plane a fresh shared AuditCache computes
// the verdict once and the remaining auditors pay a hash lookup, and
// the replay replica itself runs on streaming chains. This is the
// protocol path the PR rebuilt, and the pair `make bench-gate` holds
// to the ≥5× contract.
func benchSwarmAudit(b *testing.B, reference bool) {
	h := newProtoHarness(12, reference, auditTune)
	frames := captureAuditRound(h, h.cfg.Fmax+1)
	served := func() int {
		total := 0
		for _, eng := range h.engines {
			total += int(eng.Stats().AuditsServed)
		}
		return total
	}
	base := served()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !reference {
			// A small fresh cache per iteration models one round's
			// lifetime: the verdict is computed once and hit f_max
			// times. (The default 4096-entry cache would spend more
			// time zeroing its ring than the round spends replaying.)
			cache := core.NewAuditCache(8)
			for _, eng := range h.engines {
				eng.SetAuditCache(cache)
			}
		}
		h.queue = h.queue[:0] // drop last iteration's response frames
		for _, f := range frames {
			h.engines[int(f.Dst)-1].OnFrameEnc(f, nil)
		}
	}
	b.StopTimer()
	if got := served() - base; got != b.N*len(frames) {
		b.Fatalf("served %d of %d requests; benchmark measured refusals", got, b.N*len(frames))
	}
}

func BenchmarkSwarm_Audit_Reference(b *testing.B) { benchSwarmAudit(b, true) }
func BenchmarkSwarm_Audit_Fast(b *testing.B)      { benchSwarmAudit(b, false) }

// benchSwarmChain is the chain micro pair: append a realistic entry
// mix and flush at the batch boundary, buffered vs streaming. The
// entries echo what one busy tick commits (one sensor reading, a
// neighborhood of receives, one send, one actuator command).
func benchSwarmChain(b *testing.B, buffered bool) {
	payloads := [][]byte{
		make([]byte, wire.SensorReadingSize),
		make([]byte, wire.StateMsgSize), make([]byte, wire.StateMsgSize),
		make([]byte, wire.StateMsgSize), make([]byte, wire.StateMsgSize),
		make([]byte, wire.StateMsgSize),
		make([]byte, wire.ActuatorCmdSize),
	}
	for i, p := range payloads {
		for j := range p {
			p[j] = byte(i*31 + j)
		}
	}
	newChain := trusted.NewChain
	if buffered {
		newChain = trusted.NewBufferedChain
	}
	b.ReportAllocs()
	b.ResetTimer()
	var top cryptolite.ChainHash
	for i := 0; i < b.N; i++ {
		c := newChain(len(payloads))
		for t := 0; t < 64; t++ {
			for k, p := range payloads {
				c.AppendEntry(uint8(k+1), p)
			}
			c.Flush()
		}
		top = c.Top()
	}
	_ = top
}

func BenchmarkSwarm_Chain_Buffered(b *testing.B)  { benchSwarmChain(b, true) }
func BenchmarkSwarm_Chain_Streaming(b *testing.B) { benchSwarmChain(b, false) }

// benchSwarmSim runs a whole protected chaos cell at N=1000 on one
// plane, so BENCH_swarm.json records the end-to-end picture next to
// the isolated protocol numbers.
func benchSwarmSim(b *testing.B, plane SwarmPlane) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := ChaosConfig{
			Controller:     "flocking",
			Profile:        faultinject.ProfileNone,
			Seed:           1,
			N:              1000,
			DurationSec:    8,
			SpacingM:       64,
			SpatialIndex:   true,
			ReferencePlane: plane == PlaneReference,
		}
		res := RunChaos(cfg)
		if res.Violation != nil {
			b.Fatal(res.Violation)
		}
	}
}

func BenchmarkSwarm_Sim_Reference_N1000(b *testing.B) { benchSwarmSim(b, PlaneReference) }
func BenchmarkSwarm_Sim_Fast_N1000(b *testing.B)      { benchSwarmSim(b, PlaneFast) }
