package roborebound

// replay_differential_test.go extends the spatial-index differential
// to the audit subsystem (satellite of the spatial-indexing PR): the
// tamper-evident logs every robot accumulates — entry streams, hash
// chains, checkpoints — must come out bit-for-bit identical whether
// radio delivery ran through the uniform grid or brute force, and the
// auditor's deterministic replay (§3.7) must accept either run's
// segments. A single reordered delivery would shift a chained recv
// entry and break both properties, so this is an end-to-end proof
// that the index preserves the protocol's audit semantics, not just
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
			State: r.Controller().EncodeState(),
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

// TestReplayDifferentialIndexOnOff runs the same protected flock
// twice, spatial index off and on, and asserts per robot that
//
//   - the full auditable state (covered start checkpoint + tokens,
//     retained entry stream, end checkpoint with both chain
//     authenticators and the controller state snapshot) is
//     bit-for-bit identical across the two runs, and
//   - the auditor's deterministic replay accepts the segment, i.e.
//     each run's logged outputs are byte-for-byte what a replica of
//     the controller produces from the logged inputs.
//
// Covered checkpoints only exist because real audit rounds succeeded
// mid-mission, so the differential spans token grants and log
// truncations, not just entry appends.
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
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			var cells [2]map[wire.RobotID]replayCell
			var verify [2]func(wire.Authenticator) bool
			for i, indexed := range []bool{false, true} {
				fs := FlockScenario{
					N:            9,
					Spacing:      spacing,
					Goal:         goal,
					Protected:    true,
					Seed:         seed,
					JitterM:      2,
					SpatialIndex: indexed,
				}
				s := fs.Build()
				s.RunSeconds(40)
				cells[i] = collectSegments(t, s)
				// The auditor verifies authenticator MACs on its own
				// trusted hardware; any peer's a-node serves.
				verify[i] = s.Robot(1).ANode().CheckAuthenticator
			}

			brute, indexed := cells[0], cells[1]
			if len(brute) != len(indexed) {
				t.Fatalf("robot counts differ: %d vs %d", len(brute), len(indexed))
			}

			// The verifier config mirrors what FlockScenario.Build
			// installs in every engine.
			cc := core.DefaultConfig(tps)
			factory := flocking.Factory{Params: flocking.DefaultParams(tps, spacing, goal)}

			for id, b := range brute {
				ix, ok := indexed[id]
				if !ok {
					t.Fatalf("robot %d only in the brute run", id)
				}
				if !bytes.Equal(b.blob, ix.blob) {
					t.Errorf("robot %d: auditable state diverges between brute and indexed runs (%d vs %d bytes)",
						id, len(b.blob), len(ix.blob))
				}
				for side, cell := range map[string]replayCell{"brute": b, "indexed": ix} {
					cfg := replay.Config{
						Factory:            factory,
						BatchSize:          cc.BatchSize,
						AuthSlack:          cc.AuthSlack,
						CheckAuthenticator: verify[map[string]int{"brute": 0, "indexed": 1}[side]],
					}
					if err := replay.Verify(cell.req, cfg); err != nil {
						t.Errorf("robot %d: %s run's log rejected by auditor replay: %v", id, side, err)
					}
				}
			}
		})
	}
}
