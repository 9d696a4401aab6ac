// Package snapshot captures a complete run at a tick boundary and
// restores it, bit-for-bit. The model is rebuild-then-apply: a
// snapshot never carries configuration, key material, closures, or
// derived structure — the restoring host rebuilds the run from the
// same (config, seed), which re-derives all of those, and then applies
// the dynamic state recorded here. Each stateful package owns its own
// codec (EncodeState/RestoreState) so key material never crosses the
// trust boundary; this package assembles the opaque blobs into one
// versioned, integrity-checked envelope.
//
// The correctness contract is byte-identity: resuming a run from a
// snapshot taken at tick T must produce exactly the fingerprints,
// traces, and metrics the uninterrupted run produces from T on. The
// differential tests at the repository root hold every controller
// and fault profile to that.
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"

	"roborebound/internal/attack"
	"roborebound/internal/core"
	"roborebound/internal/faultinject"
	"roborebound/internal/radio"
	"roborebound/internal/robot"
	"roborebound/internal/sim"
	"roborebound/internal/wire"
)

// Version is the envelope format version. Bump it on ANY change to
// this envelope or to any sub-codec's byte layout; old snapshots are
// rejected rather than misread (there is no cross-version migration —
// a snapshot is a checkpoint of one build, not an archive format).
const Version = 2

// magic brands the first four bytes of every snapshot file.
var magic = [4]byte{'R', 'B', 'S', 'N'}

// RobotEntry pairs a robot with its attack wrapper (nil for correct
// robots).
type RobotEntry struct {
	ID   wire.RobotID
	Rob  *robot.Robot
	Comp *attack.Compromised
}

// Run is the snapshot layer's view of a live simulation: the handles
// whose dynamic state makes up a complete checkpoint. Robots must be
// in ascending ID order. Cache and Checker are optional (nil when the
// run has none).
type Run struct {
	Engine  *sim.Engine
	World   *sim.World
	Medium  *radio.Medium
	Robots  []RobotEntry
	Cache   *core.AuditCache
	Checker *faultinject.Checker
}

// Snapshot is a decoded envelope: still-opaque per-subsystem blobs
// plus the envelope fields. Decode produces one; Apply consumes it.
type Snapshot struct {
	// ConfigEcho is an opaque blob the capturing layer stored alongside
	// the state — the facade records the cell config so a CLI resume
	// can rebuild the run without the original invocation.
	ConfigEcho []byte
	// Tick is the engine tick the snapshot was taken at (state is as of
	// the boundary BEFORE this tick runs).
	Tick wire.Tick

	World   []byte
	Medium  []byte
	Cache   []byte // nil when the run had no audit cache
	Checker []byte // nil when no checker was attached

	Robots []RobotBlob
}

// RobotBlob is one roster entry's serialized state.
type RobotBlob struct {
	ID          wire.RobotID
	Compromised bool
	State       []byte
}

// Capture serializes the run's complete dynamic state. configEcho is
// stored verbatim in the envelope (pass nil when resuming in-process).
// Capture is legal only at a tick boundary: the engine must be between
// StepOnce calls, which also guarantees the medium is unstaged. Every
// codec it calls is total, so capture cannot fail.
func Capture(run *Run, configEcho []byte) []byte {
	w := wire.NewWriter(4096)
	w.Raw(magic[:])
	w.U16(Version)
	w.Blob(configEcho)
	w.U64(uint64(run.Engine.Now()))
	w.Blob(run.World.EncodeState())
	w.Blob(run.Medium.EncodeState())
	w.Bool(run.Cache != nil)
	if run.Cache != nil {
		w.Blob(run.Cache.EncodeState())
	}
	w.Bool(run.Checker != nil)
	if run.Checker != nil {
		w.Blob(run.Checker.EncodeState())
	}

	w.U32(uint32(len(run.Robots)))
	for _, e := range run.Robots {
		w.U16(uint16(e.ID))
		w.Bool(e.Comp != nil)
		if e.Comp != nil {
			w.Blob(e.Comp.EncodeState())
		} else {
			w.Blob(e.Rob.EncodeState())
		}
	}

	body := w.Bytes()
	sum := sha256.Sum256(body)
	return append(body, sum[:]...)
}

// Decode parses and validates an envelope without touching any live
// state. It is a pure function of the bytes — the fuzz target drives
// it directly — and must error (never panic or over-allocate) on any
// malformed input.
func Decode(b []byte) (*Snapshot, error) {
	if len(b) < len(magic)+2+sha256.Size {
		return nil, errors.New("snapshot: truncated envelope")
	}
	body, trailer := b[:len(b)-sha256.Size], b[len(b)-sha256.Size:]
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:], trailer) {
		return nil, errors.New("snapshot: integrity hash mismatch (corrupted or truncated)")
	}
	r := wire.NewReader(body)
	if !bytes.Equal(r.Raw(len(magic)), magic[:]) {
		r.Fail(errors.New("snapshot: bad magic (not a snapshot file)"))
	}
	if v := r.U16(); v != Version {
		r.Fail(fmt.Errorf("snapshot: version %d not supported (this build reads version %d)", v, Version))
	}
	s := &Snapshot{}
	s.ConfigEcho = cloneBlob(r)
	s.Tick = wire.Tick(r.U64())
	s.World = cloneBlob(r)
	s.Medium = cloneBlob(r)
	if r.Bool() {
		s.Cache = append([]byte{}, r.Blob()...)
	}
	if r.Bool() {
		s.Checker = append([]byte{}, r.Blob()...)
	}
	// Each roster record is at least 7 bytes (id + kind + length word).
	s.Robots = make([]RobotBlob, r.Count(7))
	prev := -1
	for i := range s.Robots {
		s.Robots[i] = RobotBlob{ID: r.NextID(&prev), Compromised: r.Bool(), State: cloneBlob(r)}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return s, nil
}

// cloneBlob reads a length-prefixed blob into fresh storage (the
// reader's slice aliases the input).
func cloneBlob(r *wire.Reader) []byte {
	b := r.Blob()
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// Apply restores a decoded snapshot onto a structurally identical
// rebuilt run (same config and seed, freshly built, zero ticks run).
// On error the run is unspecified and must be discarded — partial
// application is not rolled back.
func Apply(run *Run, s *Snapshot) error {
	if (s.Cache != nil) != (run.Cache != nil) {
		return errors.New("snapshot: audit-cache presence does not match the rebuilt run")
	}
	if s.Checker != nil && run.Checker == nil {
		return errors.New("snapshot: snapshot has checker state but the rebuilt run has no checker")
	}
	if len(s.Robots) != len(run.Robots) {
		return fmt.Errorf("snapshot: roster has %d robots, rebuilt run has %d", len(s.Robots), len(run.Robots))
	}
	for i, rb := range s.Robots {
		e := run.Robots[i]
		if rb.ID != e.ID {
			return fmt.Errorf("snapshot: roster entry %d is robot %d, rebuilt run has %d", i, rb.ID, e.ID)
		}
		if rb.Compromised != (e.Comp != nil) {
			return fmt.Errorf("snapshot: robot %d compromised-kind mismatch with rebuilt run", rb.ID)
		}
	}
	if err := run.World.RestoreState(s.World); err != nil {
		return fmt.Errorf("snapshot: world: %w", err)
	}
	if err := run.Medium.RestoreState(s.Medium); err != nil {
		return fmt.Errorf("snapshot: medium: %w", err)
	}
	if s.Cache != nil {
		if err := run.Cache.RestoreState(s.Cache); err != nil {
			return fmt.Errorf("snapshot: audit cache: %w", err)
		}
	}
	if s.Checker != nil {
		if err := run.Checker.RestoreState(s.Checker); err != nil {
			return fmt.Errorf("snapshot: checker: %w", err)
		}
	}
	for i, rb := range s.Robots {
		e := run.Robots[i]
		var err error
		if e.Comp != nil {
			err = e.Comp.RestoreState(rb.State)
		} else {
			err = e.Rob.RestoreState(rb.State)
		}
		if err != nil {
			return fmt.Errorf("snapshot: robot %d: %w", rb.ID, err)
		}
	}
	run.Engine.RestoreNow(s.Tick)
	return nil
}
