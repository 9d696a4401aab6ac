package roborebound

// swarm_differential_test.go extends the PR 5 differential layer to
// the swarm-shared audit verdict cache, the one protocol optimisation
// with cross-robot state: a cell with the cache detached (every audit
// request replayed) is the oracle, and the cached cell must reproduce
// it byte for byte on all three observability surfaces — chaos
// fingerprint, NDJSON event trace, and metrics snapshot. The other
// three protocol equivalences (streaming chains, the log's pre-encoded
// window, the encode-once request tail) are pure functions, each owned
// by a unit oracle — see DESIGN.md "Protocol-plane pipeline".

import (
	"fmt"
	"reflect"
	"testing"

	"roborebound/internal/faultinject"
	"roborebound/internal/obs"
)

// TestProtocolPlaneDifferentialMatrix runs (controller × profile ×
// seed) cells uncached and cached. The cells include the default
// Byzantine attacker and generated fault schedules — they run 30 s,
// past the 24 s below which a profile schedules nothing, and
// RequireProfilesDiffer checks that the profiles differ — so the
// cached audit path is exercised under refusals, packet loss, and
// Safe-Mode kills, not just clean rounds.
func TestProtocolPlaneDifferentialMatrix(t *testing.T) {
	controllers := []string{"flocking", "warehouse"}
	profiles := []faultinject.Profile{faultinject.ProfileNone, faultinject.ProfileMixed}
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	record := profileFingerprints(t)
	for _, controller := range controllers {
		for _, profile := range profiles {
			for _, seed := range seeds {
				cfg := ChaosConfig{
					Controller:  controller,
					Profile:     profile,
					Seed:        seed,
					DurationSec: 30,
					AttackAtSec: 5,
				}
				t.Run(fmt.Sprintf("%s/%s/seed%d", controller, profile, seed), func(t *testing.T) {
					t.Parallel()
					ref, refTrace := runCacheCell(t, cfg, false)
					fast, fastTrace := runCacheCell(t, cfg, true)
					assertCellsIdentical(t, cfg.Label()+" [cached]", ref, fast, refTrace, fastTrace)
					record(cfg, fast.Metrics.Fingerprint)
				})
			}
		}
	}
}

// TestProtocolPlaneDifferentialSwarmCell is one production-shaped cell:
// larger flock, uncached and cached.
func TestProtocolPlaneDifferentialSwarmCell(t *testing.T) {
	if testing.Short() {
		t.Skip("swarm cell is slow")
	}
	cfg := ChaosConfig{
		Controller:  "flocking",
		Profile:     faultinject.ProfileNone,
		Seed:        7,
		N:           60,
		DurationSec: 12,
		SpacingM:    40,
	}
	ref, refTrace := runCacheCell(t, cfg, false)
	fast, fastTrace := runCacheCell(t, cfg, true)
	assertCellsIdentical(t, cfg.Label()+" [cached]", ref, fast, refTrace, fastTrace)
}

// runCacheCell runs cfg's cell traced, built and run by RunChaos's own
// steps, with the swarm-shared audit cache detached unless cached. The
// differential must not pass vacuously: the uncached cell may hold a
// cache nowhere, and the cached cell's shared cache must have hits.
func runCacheCell(t *testing.T, cfg ChaosConfig, cached bool) (ChaosResult, []byte) {
	t.Helper()
	col := obs.NewCollector()
	cfg.Trace = col
	cfg = cfg.withDefaults()
	cell := buildChaosCell(cfg)
	s := cell.sim
	if !cached {
		s.detachAuditCache()
	}
	res := cell.run(cfg)
	if cached {
		if hits, misses := s.acache.HitsMisses(); hits == 0 {
			t.Errorf("%s: the shared audit cache recorded no hits (%d misses); the differential compares nothing", cfg.Label(), misses)
		}
	} else {
		if s.acache != nil {
			t.Errorf("%s: the uncached cell keeps a shared audit cache", cfg.Label())
		}
		for _, id := range s.IDs() {
			if eng := s.Robot(id).Engine(); eng != nil && !reflect.ValueOf(eng).Elem().FieldByName("acache").IsNil() {
				t.Errorf("%s: robot %d's engine keeps an audit cache in the uncached cell", cfg.Label(), id)
			}
		}
	}
	return res, traceNDJSON(t, cfg.Label(), col)
}

// detachAuditCache leaves every engine replaying each audit request it
// serves: the oracle the protocol differential compares the shared
// cache against. An engine with no cache is a state the code supports
// anyway (keyless auditors, the benchmark drills).
func (s *Sim) detachAuditCache() {
	s.acache = nil
	for _, id := range s.IDs() {
		if eng := s.robots[id].Engine(); eng != nil {
			eng.SetAuditCache(nil)
		}
	}
}
