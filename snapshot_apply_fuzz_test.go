package roborebound

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"roborebound/internal/faultinject"
	"roborebound/internal/snapshot"
	"roborebound/internal/wire"
)

// fuzzApplyCell is the cell FuzzSnapshotApply corrupts: a protected
// 4-robot flock whose attacker turns at 5 s, captured at tick 60 of 80.
var fuzzApplyCell = ChaosConfig{
	Controller: "flocking", Profile: faultinject.ProfileNone, Seed: 3,
	N: 4, DurationSec: 20, AttackAtSec: 5,
}

// fuzzApplyCapture returns the envelope of fuzzApplyCell at tick 60.
func fuzzApplyCapture(tb testing.TB) []byte {
	cfg := fuzzApplyCell
	cfg.SnapshotAtTicks = []wire.Tick{60}
	res := RunChaos(cfg)
	if len(res.Snapshots) != 1 {
		tb.Fatalf("captured %d snapshots, want 1", len(res.Snapshots))
	}
	return res.Snapshots[0].Data
}

// fuzzApplySeeds are (body offset, word) pairs: a no-op overwrite of
// the magic, then 0xFFFFFFFF over the first count word of the world,
// medium, checker, audit cache, roster and each robot's engine or
// capture ring.
func fuzzApplySeeds(tb testing.TB, data []byte) [][2]uint32 {
	body := data[:len(data)-sha256.Size]
	s, err := snapshot.Decode(data)
	if err != nil {
		tb.Fatal(err)
	}
	at := func(blob []byte, skip int) uint32 {
		off := bytes.Index(body, blob)
		if off < 0 {
			tb.Fatalf("blob % x… not found in the envelope", blob[:8])
		}
		return uint32(off + skip)
	}
	seeds := [][2]uint32{
		{0, binary.BigEndian.Uint32(body)},
		{at(s.World, 0), ^uint32(0)},
		{at(s.Medium, 0), ^uint32(0)},
		{at(s.Checker, 1), ^uint32(0)},
		// The audit cache's capacity and cursor precede its count.
		{at(s.Cache, 8), ^uint32(0)},
		// The roster count precedes robot 0's ID, kind and blob length.
		{at(s.Robots[0].State, -11), ^uint32(0)},
	}
	for _, rb := range s.Robots {
		if rb.Compromised {
			// Flags and first-misbehaviour tick, then the ring count.
			seeds = append(seeds, [2]uint32{at(rb.State, 9), ^uint32(0)})
			continue
		}
		r := wire.NewReader(rb.State)
		r.Raw(1 + 8 + 4)
		r.Blob()
		r.Blob()
		seeds = append(seeds, [2]uint32{at(r.Blob(), 0), ^uint32(0)})
	}
	return seeds
}

// FuzzSnapshotApply corrupts four bytes of a real capture's body,
// re-sums its trailer so the bytes pass the integrity check, and
// resumes the cell from it. Decode and every layer's RestoreState must
// refuse it or accept it — never panic. The Interrupt hook fires at
// the resume tick, so no tick of the restored run executes.
func FuzzSnapshotApply(f *testing.F) {
	data := fuzzApplyCapture(f)
	for _, s := range fuzzApplySeeds(f, data) {
		f.Add(s[0], s[1])
	}
	body := data[:len(data)-sha256.Size]
	apply := func(off, word uint32) ChaosResult {
		mut := append([]byte(nil), body...)
		binary.BigEndian.PutUint32(mut[int(off)%(len(mut)-3):], word)
		sum := sha256.Sum256(mut)
		cfg := fuzzApplyCell
		cfg.ResumeFrom = append(mut, sum[:]...)
		cfg.Interrupt = func() bool { return true }
		return RunChaos(cfg)
	}
	if res := apply(0, binary.BigEndian.Uint32(body)); res.ResumeError != nil {
		f.Fatalf("the clean capture does not apply: %v", res.ResumeError)
	}
	f.Fuzz(func(t *testing.T, off, word uint32) {
		if res := apply(off, word); res.ResumeError == nil && !res.Interrupted {
			t.Fatal("an applied snapshot ran past its resume tick")
		}
	})
}

// TestWriteSnapshotApplyCorpus regenerates FuzzSnapshotApply's
// checked-in seeds. Run with REGEN_FUZZ_CORPUS=1 after a change to the
// cell or to the snapshot layout.
func TestWriteSnapshotApplyCorpus(t *testing.T) {
	if os.Getenv("REGEN_FUZZ_CORPUS") == "" {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to regenerate testdata/fuzz seeds")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzSnapshotApply")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range fuzzApplySeeds(t, fuzzApplyCapture(t)) {
		body := fmt.Sprintf("go test fuzz v1\nuint32(%d)\nuint32(%d)\n", s[0], s[1])
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
