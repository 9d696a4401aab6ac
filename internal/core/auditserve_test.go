package core

import (
	"testing"

	"roborebound/internal/obs"
	"roborebound/internal/trusted"
	"roborebound/internal/wire"
)

// TestSharedAuditCacheServesSwarm: with one cache shared across the
// harness, rounds still cover (hits mint real tokens) and the cache
// actually deduplicates — the f_max auditors after the first hit
// instead of replaying.
func TestSharedAuditCacheServesSwarm(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Fmax = 2
	cfg.AutoServeLimit()
	h := newHarness(t, cfg, 1, 2, 3, 4, 5)
	cache := NewAuditCache(0)
	for _, eng := range h.engines {
		eng.SetAuditCache(cache)
	}
	h.run(200)
	for id, eng := range h.engines {
		if eng.Stats().RoundsCovered == 0 {
			t.Errorf("robot %d covered no rounds with the cache attached", id)
		}
		if h.anodes[id].InSafeMode() {
			t.Errorf("robot %d in safe mode", id)
		}
	}
	hits, misses := cache.HitsMisses()
	if misses == 0 || hits == 0 {
		t.Fatalf("cache unused: hits=%d misses=%d", hits, misses)
	}
	// Every round fans the same request to f_max+1 = 3 auditors: one
	// miss, then hits. Requiring hits ≥ misses proves real sharing.
	if hits < misses {
		t.Errorf("hits=%d < misses=%d; cache is not deduplicating rounds", hits, misses)
	}
}

// newAuditor builds an engine outside any harness, at tick 0 with
// zeroed Stats, so two of them fed the same frames are comparable.
// keyed loads the mission key.
func newAuditor(t *testing.T, cfg Config, id wire.RobotID, keyed bool) *Engine {
	t.Helper()
	clock := func() wire.Tick { return 0 }
	sn := trusted.NewSNode(cfg.BatchSize, clock)
	var eng *Engine
	an := trusted.NewANode(cfg.ANodeConfig(), clock, func(wire.Frame) {},
		func(f wire.Frame, enc []byte) { eng.OnFrameEnc(f, enc) }, nil, nil)
	sn.LoadMasterKey(master, id)
	an.LoadMasterKey(master, id)
	if keyed && (!sn.LoadMissionKey(sealedKey()) || !an.LoadMissionKey(sealedKey())) {
		t.Fatal("mission key rejected")
	}
	eng = NewEngine(id, cfg, factory(), sn, an, an.SendWirelessEnc)
	return eng
}

// TestCachedRefusalAccountingMatchesUncached pins the property the
// differential layer depends on: the one serve path counts the same
// Stats with a cache attached and without, for malformed, misaddressed,
// self-addressed and over-budget requests alike. A request whose tail
// does not decode is dropped, not refused, even when its head would be
// refused; only a request that reaches the replay leaves a verdict in
// the cache.
func TestCachedRefusalAccountingMatchesUncached(t *testing.T) {
	const self = 1
	cfg := DefaultConfig(4)
	cfg.Fmax = 1
	cfg.ServeLimit = 1

	request := func(auditee, auditor wire.RobotID) []byte {
		return (&wire.AuditRequest{Auditee: auditee, Auditor: auditor,
			Req: wire.TokenRequest{Auditee: auditee, Auditor: auditor, T: 7}}).Encode()
	}
	// truncate chops the last byte: the head still splits, the full
	// decode fails.
	truncate := func(b []byte) []byte { return b[:len(b)-1] }
	spendBudget := func(e *Engine) { e.served = append(e.served, e.now) }

	for _, c := range []struct {
		name        string
		payload     []byte
		setup       func(*Engine)
		wantRefused uint64
		wantStored  int
	}{
		{name: "head does not split", payload: []byte{wire.KindAuditRequest, 0}},
		{name: "tail does not decode", payload: truncate(request(3, self))},
		{name: "misaddressed", payload: request(3, 9), wantRefused: 1},
		{name: "misaddressed, tail does not decode", payload: truncate(request(3, 9))},
		{name: "self-addressed", payload: request(self, self), wantRefused: 1},
		{name: "over budget", payload: request(3, self), setup: spendBudget, wantRefused: 1},
		{name: "over budget, tail does not decode", payload: truncate(request(3, self)), setup: spendBudget},
		// Decodes and passes every auditor-local check, then fails the
		// replay (no checkpoint): refused on both, memoized on one.
		{name: "replayed and rejected", payload: request(3, self), wantRefused: 1, wantStored: 1},
	} {
		cached, uncached := newAuditor(t, cfg, self, true), newAuditor(t, cfg, self, true)
		cache := NewAuditCache(8)
		cached.SetAuditCache(cache)
		for _, eng := range []*Engine{cached, uncached} {
			if c.setup != nil {
				c.setup(eng)
			}
			eng.OnFrameEnc(wire.Frame{Src: 3, Dst: self, Flags: wire.FlagAudit, Payload: c.payload}, nil)
		}
		if got, want := cached.Stats(), uncached.Stats(); got != want {
			t.Errorf("%s: cached Stats %+v, uncached %+v", c.name, got, want)
		}
		if got := uncached.Stats().AuditsRefused; got != c.wantRefused {
			t.Errorf("%s: refused %d, want %d", c.name, got, c.wantRefused)
		}
		if n := cache.Len(); n != c.wantStored {
			t.Errorf("%s: cache holds %d verdicts, want %d", c.name, n, c.wantStored)
		}
	}
}

// TestKeylessAuditorNeverTouchesCache: a keyless a-node's verdicts are
// key-dependent garbage; the engine must bypass the shared cache
// entirely rather than poison it (or trust it).
func TestKeylessAuditorNeverTouchesCache(t *testing.T) {
	eng := newAuditor(t, DefaultConfig(4), 1, false) // no mission key: HasKey() is false
	cache := NewAuditCache(8)
	eng.SetAuditCache(cache)

	a := wire.AuditRequest{Auditee: 2, Auditor: 1,
		Req: wire.TokenRequest{Auditee: 2, Auditor: 1, T: 5}}
	eng.OnFrameEnc(wire.Frame{Src: 2, Dst: 1, Flags: wire.FlagAudit, Payload: a.Encode()}, nil)
	if hits, misses := cache.HitsMisses(); hits != 0 || misses != 0 {
		t.Errorf("keyless auditor consulted the cache: hits=%d misses=%d", hits, misses)
	}
	if cache.Len() != 0 {
		t.Errorf("keyless auditor stored %d verdicts", cache.Len())
	}
}

// TestSolicitRotationSurvivesInstrument guards the rotation counter's
// independence from the observability layer: Instrument rebinds the
// stats counters (resetting their counts), and the auditor rotation
// must not notice — it is driven by the engine's own rounds field.
// The old bug drove rotation from the roundsStarted counter, so a
// mid-run Instrument silently re-phased every robot's rotation.
func TestSolicitRotationSurvivesInstrument(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Fmax = 1
	h := newHarness(t, cfg, 1, 2, 3, 4)
	h.run(100)
	eng := h.engines[1]
	before := eng.rounds
	if before == 0 {
		t.Fatal("no rounds started; rotation untested")
	}
	eng.Instrument(nil, obs.NewRegistry())
	if eng.Stats().RoundsStarted != 0 {
		t.Fatal("Instrument did not rebind counters; test premise broken")
	}
	h.run(100)
	after := eng.rounds
	if after <= before {
		t.Errorf("rounds did not advance after Instrument (%d -> %d)", before, after)
	}
	// The rebound counter restarts from zero, so matching it would
	// mean rotation phase was lost with it.
	if started := int(eng.Stats().RoundsStarted); after == started {
		t.Errorf("rounds field (%d) tracks the rebound counter (%d); rotation would re-phase",
			after, started)
	}
}

// TestInstrumentCostsTwoAllocations pins what metrics cost a robot's
// engine: its round-latency histogram (the struct and its buckets;
// the bounds are shared) and one registration, whose slice growth
// amortises to nothing. The tallies are the engine's own fields.
func TestInstrumentCostsTwoAllocations(t *testing.T) {
	const robots = 1000
	cfg := DefaultConfig(4)
	engines := make([]*Engine, robots+1) // AllocsPerRun warms up with one extra call
	for i := range engines {
		engines[i] = NewEngine(wire.RobotID(i+1), cfg, factory(), nil, nil, nil)
	}
	reg := obs.NewRegistry()
	next := 0
	got := testing.AllocsPerRun(robots, func() {
		engines[next].Instrument(nil, reg)
		next++
	})
	if got > 2 {
		t.Errorf("instrumenting an engine makes %v allocations, want at most 2", got)
	}
	if n := len(reg.Snapshot()); n != (robots+1)*18 {
		t.Errorf("snapshot holds %d samples, want 18 per engine", n)
	}
}

// TestLateTokenAfterRoundCovered: tokens that straggle in after the
// round already holds f_max+1 are the paper's "extra tokens cause no
// harm" case (§3.7) — a genuine late token for the *current* round
// installs without re-covering the round, and a replayed token from a
// *previous* round (stale checkpoint hash) is ignored outright.
func TestLateTokenAfterRoundCovered(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Fmax = 1
	h := newHarness(t, cfg, 1, 2, 3, 4)
	eng := h.engines[1]
	for i := 0; i < 400 && !(eng.round != nil && eng.round.covered); i++ {
		h.tick()
	}
	r := eng.round
	if r == nil || !r.covered {
		t.Fatal("no covered round to straggle into")
	}
	covered := eng.Stats().RoundsCovered
	installed := eng.Stats().TokensInstalled
	var tok wire.Token
	for _, tok = range r.tokens {
		break
	}

	// Replay of an already-installed current-round token: installs
	// (InstallToken keeps the max timestamp, so it is a no-op there)
	// but must not cover the round twice.
	eng.OnFrameEnc(wire.Frame{Src: tok.Auditor, Dst: 1, Flags: wire.FlagAudit,
		Payload: (&wire.AuditResponse{Auditor: tok.Auditor, Auditee: 1, OK: true, Tok: tok}).Encode()}, nil)
	if got := eng.Stats().RoundsCovered; got != covered {
		t.Errorf("late token re-covered the round: %d -> %d", covered, got)
	}
	if got := eng.Stats().TokensInstalled; got != installed+1 {
		t.Errorf("genuine late token not installed: %d -> %d", installed, got)
	}

	// A token whose checkpoint hash is not the current round's (e.g. a
	// replay from an earlier round) must be ignored entirely.
	stale := tok
	stale.HCkpt[0] ^= 1
	eng.OnFrameEnc(wire.Frame{Src: stale.Auditor, Dst: 1, Flags: wire.FlagAudit,
		Payload: (&wire.AuditResponse{Auditor: stale.Auditor, Auditee: 1, OK: true, Tok: stale}).Encode()}, nil)
	if got := eng.Stats().TokensInstalled; got != installed+1 {
		t.Error("stale-round token installed")
	}
	if got := eng.Stats().TokensRejected; got != 0 {
		// Stale-hash responses are filtered before the a-node sees
		// them; rejection stats are for forged-MAC tokens only.
		t.Errorf("stale-round token reached the a-node: rejected=%d", got)
	}
}

// TestServeWindowSizedOnce: served is sized to ServeLimit at a robot's
// first serve and never reallocated after it. serveBudgetOK keeps at
// most ServeLimit timestamps, so a robot that fills its budget appends
// into the storage its first serve made. A limit below the flock's
// demand (see TestServeLimitCapsAudits) makes every robot fill it.
func TestServeWindowSizedOnce(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Fmax = 1
	cfg.ServeLimit = 3
	h := newHarness(t, cfg, 1, 2, 3)
	first := make(map[wire.RobotID]*wire.Tick)
	filled := 0
	for i := 0; i < 200; i++ {
		h.tick()
		for id, e := range h.engines {
			if cap(e.served) == 0 {
				continue
			}
			if cap(e.served) < cfg.ServeLimit {
				t.Fatalf("tick %d: robot %d's serve window holds %d, want room for %d", h.now, id, cap(e.served), cfg.ServeLimit)
			}
			at := &e.served[:1][0]
			if first[id] == nil {
				first[id] = at
			} else if first[id] != at {
				t.Fatalf("tick %d: robot %d's serve window was reallocated", h.now, id)
			}
			if len(e.served) == cfg.ServeLimit {
				filled++
			}
		}
	}
	if len(first) != len(h.engines) || filled == 0 {
		t.Fatalf("%d of %d robots served, budget filled %d times: the test served too little", len(first), len(h.engines), filled)
	}
}

// TestServeBudgetWindowBoundary pins the §5.1 window edge: a served
// audit at tick t counts against the budget while now < t+TVal and
// falls out at exactly now == t+TVal.
func TestServeBudgetWindowBoundary(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.ServeLimit = 1
	e := &Engine{cfg: cfg}
	const servedAt = 100
	e.served = []wire.Tick{servedAt}

	e.now = servedAt + cfg.TVal - 1
	if e.serveBudgetOK() {
		t.Error("budget free one tick before the window closes")
	}
	e.served = []wire.Tick{servedAt}
	e.now = servedAt + cfg.TVal
	if !e.serveBudgetOK() {
		t.Error("budget still charged at exactly t+TVal")
	}
}
