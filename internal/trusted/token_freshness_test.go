package trusted

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"roborebound/internal/cryptolite"
	"roborebound/internal/wire"
)

// TestInstallTokenReplayCannotDowngrade is the regression test for the
// token-downgrade bug: InstallToken used to blindly overwrite the
// per-auditor timestamp, so an attacker replaying a captured *older*
// token from the same auditor (its MAC verifies forever) would roll
// the auditee's freshness horizon backwards and shave real mission
// time off T_val — pushing a correct robot toward Safe Mode. The fix
// keeps the maximum timestamp per auditor; this test fails against the
// blind-overwrite code.
func TestInstallTokenReplayCannotDowngrade(t *testing.T) {
	now := wire.Tick(0)
	_, auditee := provisioned(t, 2, &now)
	_, auditor := provisioned(t, 1, &now)
	var h cryptolite.ChainHash

	now = 4
	reqOld, ok := auditee.MakeTokenRequest(1)
	if !ok {
		t.Fatal("token request refused")
	}
	tokOld, ok := auditor.IssueToken(reqOld, h)
	if !ok {
		t.Fatal("old token refused")
	}

	now = 20
	reqNew, _ := auditee.MakeTokenRequest(1)
	tokNew, ok := auditor.IssueToken(reqNew, h)
	if !ok {
		t.Fatal("new token refused")
	}

	if !auditee.InstallToken(tokNew) {
		t.Fatal("fresh token rejected")
	}
	// The replayed token is genuine, so installation succeeds — it
	// just must not move the freshness horizon backwards.
	if !auditee.InstallToken(tokOld) {
		t.Fatal("replayed genuine token rejected outright")
	}

	tval := auditee.cfg.TVal
	// Past the old token's expiry, inside the new one's window: the
	// auditor slot must still count as fresh.
	now = tokOld.T + tval
	if got := auditee.ValidTokenCount(); got != 1 {
		t.Fatalf("replayed stale token downgraded freshness: ValidTokenCount = %d, want 1", got)
	}
	// Sanity: the slot expires when the *new* token does.
	now = tokNew.T + tval
	if got := auditee.ValidTokenCount(); got != 0 {
		t.Fatalf("token outlived its window: ValidTokenCount = %d, want 0", got)
	}
}

// TestTokenFreshnessExactBoundary pins the T_val edge everywhere the
// a-node evaluates it: a token stamped t is fresh while now < t+TVal
// and expired at exactly now == t+TVal — the strict inequality is what
// makes T_val a hard bound on interaction time (§3.5).
func TestTokenFreshnessExactBoundary(t *testing.T) {
	now := wire.Tick(0)
	clock := func() wire.Tick { return now }
	cfg := DefaultANodeConfig(4)
	cfg.Fmax = 0 // one fresh token keeps the robot alive
	a := NewANode(cfg, clock, nil, nil, nil, nil)
	a.LoadMasterKey(testMaster, 2)
	if !a.LoadMissionKey(testSealed(1)) {
		t.Fatal("mission key rejected")
	}
	a.graceUntil = 0 // boundary under test, not the boot grace window
	const stamped = wire.Tick(100)
	a.stampToken(9, stamped)

	now = stamped + cfg.TVal - 1
	if got := a.ValidTokenCount(); got != 1 {
		t.Fatalf("token expired one tick early: count = %d", got)
	}
	a.CheckTokens()
	if a.InSafeMode() {
		t.Fatal("safe mode one tick before the token window closed")
	}

	now = stamped + cfg.TVal
	if got := a.ValidTokenCount(); got != 0 {
		t.Fatalf("token fresh at exactly t+TVal: count = %d", got)
	}
	a.CheckTokens()
	if !a.InSafeMode() {
		t.Fatal("safe mode did not trigger at exactly t+TVal")
	}
}

// TestTokenMapMatchesMapModel holds the a-node's token map — one slice
// of records, ascending by auditor — to the map it replaced,
// tkMap[auditor] ← max(tkMap[auditor], t), over random install
// sequences: same fresh-token count at any clock reading, the same
// canonical snapshot bytes (count, then (auditor, t) ascending), a
// restore that reproduces both, and a restore that rejects a blob
// whose entries are out of order or repeat an auditor.
func TestTokenMapMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		now := wire.Tick(0)
		_, a := provisioned(t, 1, &now)
		base := a.EncodeState()
		// An empty map is the 4-byte count 0 followed by the 25 bytes of
		// bucket level, bucket time, Safe-Mode flag and grace deadline.
		const afterMap = 8 + 8 + 1 + 8
		mapAt := len(base) - afterMap - 4
		model := make(map[wire.RobotID]wire.Tick)
		for op, ops := 0, 1+rng.Intn(60); op < ops; op++ {
			id, at := wire.RobotID(2+rng.Intn(12)), wire.Tick(rng.Intn(200))
			a.stampToken(id, at)
			if old, ok := model[id]; !ok || at > old {
				model[id] = at
			}
			now = wire.Tick(rng.Intn(260))
			want := 0
			for _, at := range model {
				if at+a.cfg.TVal > now {
					want++
				}
			}
			if got := a.ValidTokenCount(); got != want {
				t.Fatalf("trial %d op %d: %d fresh tokens at t=%d, the map model has %d", trial, op, got, now, want)
			}
		}
		ids := make([]wire.RobotID, 0, len(model))
		for id := range model {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		w := wire.NewWriter(0)
		w.Raw(base[:mapAt])
		w.U32(uint32(len(ids)))
		for _, id := range ids {
			w.U16(uint16(id))
			w.U64(uint64(model[id]))
		}
		w.Raw(base[len(base)-afterMap:])
		blob := a.EncodeState()
		if !bytes.Equal(blob, w.Bytes()) {
			t.Fatalf("trial %d: snapshot bytes differ from the map model's canonical encoding", trial)
		}
		_, b := provisioned(t, 1, &now)
		if err := b.RestoreState(blob); err != nil {
			t.Fatalf("trial %d: restore: %v", trial, err)
		}
		if again := b.EncodeState(); !bytes.Equal(again, blob) {
			t.Fatalf("trial %d: restored node re-encodes differently", trial)
		}
		if b.ValidTokenCount() != a.ValidTokenCount() {
			t.Fatalf("trial %d: restored node counts %d fresh tokens, the original %d", trial, b.ValidTokenCount(), a.ValidTokenCount())
		}
		if len(ids) < 2 {
			continue
		}
		// Entry k sits at mapAt+4+10k: swap the first two auditors, then
		// repeat the first.
		first, second := mapAt+4, mapAt+4+10
		swapped := bytes.Clone(blob)
		copy(swapped[first:first+2], blob[second:second+2])
		copy(swapped[second:second+2], blob[first:first+2])
		dup := bytes.Clone(blob)
		copy(dup[second:second+2], blob[first:first+2])
		for name, bad := range map[string][]byte{"descending": swapped, "duplicate": dup} {
			if err := b.RestoreState(bad); err == nil {
				t.Fatalf("trial %d: restore accepted a token map with %s auditors", trial, name)
			}
		}
	}
}
