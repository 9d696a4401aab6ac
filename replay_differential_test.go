package roborebound

// replay_differential_test.go extends the brute-force record to the
// audit subsystem: the tamper-evident logs every robot accumulates —
// entry streams, hash chains, checkpoints — must come out bit-for-bit
// as they did when radio delivery scanned every robot (the per-robot
// digests in testdata/brute_record.json, see differential_test.go),
// and the auditor's deterministic replay (§3.7) must accept the run's
// segments. A single reordered delivery would shift a chained recv
// entry and break both properties, so this is an end-to-end proof
// that the grid preserves the protocol's audit semantics, not just
// its physics.

import (
	"bytes"
	"fmt"
	"testing"

	"roborebound/internal/auditlog"
	"roborebound/internal/core"
	"roborebound/internal/flocking"
	"roborebound/internal/geom"
	"roborebound/internal/replay"
	"roborebound/internal/wire"
)

// replayCell is one robot's auditable state at mission end: the
// serialized log segment plus everything needed to replay it.
type replayCell struct {
	blob []byte // canonical bytes: start checkpoint+tokens, entries, end checkpoint
	req  replay.Request
}

// collectSegments ends the mission the way the engine's own audit
// round does — flush both trusted-node chains into authenticators,
// snapshot the controller, checkpoint the log — and returns each
// robot's segment from its last covered checkpoint (or boot) to now.
func collectSegments(t *testing.T, s *Sim) map[wire.RobotID]replayCell {
	t.Helper()
	cells := make(map[wire.RobotID]replayCell)
	for _, id := range s.IDs() {
		r := s.Robot(id)
		authS, okS := r.SNode().MakeAuthenticator()
		authA, okA := r.ANode().MakeAuthenticator()
		if !okS || !okA {
			t.Fatalf("robot %d: trusted nodes keyless at mission end", id)
		}
		cp := auditlog.Checkpoint{
			Time:  authS.T,
			AuthS: authS,
			AuthA: authA,
			State: r.Controller().AppendState(nil),
		}
		log := r.Engine().Log()
		log.AddCheckpoint(cp)
		seg, err := log.SegmentTo(cp.Hash())
		if err != nil {
			t.Fatalf("robot %d: %v", id, err)
		}
		// The segment aliases the log's window; the cell outlives it.
		encoded := bytes.Clone(seg.Encoded)
		entries, err := wire.DecodeLogEntries(encoded)
		if err != nil {
			t.Fatalf("robot %d: log segment does not decode: %v", id, err)
		}
		if len(entries) == 0 {
			t.Fatalf("robot %d: empty log segment — the differential would be vacuous", id)
		}

		var blob bytes.Buffer
		if seg.FromBoot {
			blob.WriteByte(1)
		} else {
			blob.WriteByte(0)
			blob.Write(seg.Start.CP.Encode())
			for _, tok := range seg.Start.Tokens {
				blob.Write(tok.Encode())
			}
		}
		blob.Write(encoded)
		blob.Write(seg.End.Encode())

		req := replay.Request{
			Auditee:  id,
			ReqT:     authS.T, // a token request issued right now
			FromBoot: seg.FromBoot,
			End:      seg.End,
			Entries:  entries,
		}
		if !seg.FromBoot {
			start := seg.Start.CP
			req.Start = &start
		}
		cells[id] = replayCell{blob: blob.Bytes(), req: req}
	}
	return cells
}

// TestReplayDifferentialIndexOnOff runs a protected flock and asserts
// per robot that
//
//   - the full auditable state (covered start checkpoint + tokens,
//     retained entry stream, end checkpoint with both chain
//     authenticators and the controller state snapshot) hashes to what
//     the brute-force run's did, and
//   - the auditor's deterministic replay accepts the segment, i.e.
//     the run's logged outputs are byte-for-byte what a replica of
//     the controller produces from the logged inputs.
//
// Covered checkpoints only exist because real audit rounds succeeded
// mid-mission, so the comparison spans token grants and log
// truncations, not just entry appends. (The name predates the record;
// it stays because the suite's floor lists these subtests by it.)
func TestReplayDifferentialIndexOnOff(t *testing.T) {
	seeds := []uint64{3, 7, 11}
	if testing.Short() {
		seeds = seeds[:1]
	}
	const (
		tps     = 4.0
		spacing = 12.0
	)
	goal := geom.V(150, 150)

	for _, seed := range seeds {
		name := fmt.Sprintf("seed%d", seed)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want, ok := bruteRecordFor(t).Logs[name]
			if !ok {
				t.Fatalf("no brute-force log digests for %s", name)
			}
			s := FlockScenario{
				N:         9,
				Spacing:   spacing,
				Goal:      goal,
				Protected: true,
				Seed:      seed,
				JitterM:   2,
			}.Build()
			s.RunSeconds(40)
			cells := collectSegments(t, s)
			if len(cells) != len(want) {
				t.Fatalf("robot counts differ: %d here, %d in the brute-force record", len(cells), len(want))
			}

			// The verifier config mirrors what FlockScenario.Build
			// installs in every engine. The auditor verifies
			// authenticator MACs on its own trusted hardware; any peer's
			// a-node serves.
			cc := core.DefaultConfig(tps)
			cfg := replay.Config{
				Factory:            flocking.Factory{Params: flocking.DefaultParams(tps, spacing, goal)},
				BatchSize:          cc.BatchSize,
				AuthSlack:          cc.AuthSlack,
				CheckAuthenticator: s.Robot(1).ANode().CheckAuthenticator,
			}
			for id, cell := range cells {
				if got := sha256Hex(cell.blob); got != want[fmt.Sprint(id)] {
					t.Errorf("robot %d: auditable state (%d bytes) hashes to %s, the brute-force run's to %s",
						id, len(cell.blob), got, want[fmt.Sprint(id)])
				}
				if err := replay.Verify(cell.req, cfg); err != nil {
					t.Errorf("robot %d: log rejected by auditor replay: %v", id, err)
				}
			}
		})
	}
}
