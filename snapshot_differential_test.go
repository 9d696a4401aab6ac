package roborebound

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"roborebound/internal/faultinject"
	"roborebound/internal/obs"
	"roborebound/internal/obs/perf"
	"roborebound/internal/wire"
)

// This file is the resume-equivalence differential layer: for a matrix
// of chaos cells it proves, byte for byte, that (a) capturing a
// snapshot is pure observation — a run with captures enabled is
// indistinguishable from one without — and (b) snapshot-at-T-then-
// resume reproduces the uninterrupted run exactly: same fingerprint,
// same final metrics snapshot, same violation, and an identical NDJSON
// event stream from the snapshot tick onward. The comparison runs the
// full facade (RunChaos), so every layer's codec — world, medium,
// trusted nodes, protocol engine, checker, PRNG streams — is on the
// hook at once.

// ndjsonEvents canonically serializes an event slice; byte equality of
// the output is the trace-equivalence oracle.
func ndjsonEvents(t *testing.T, events []obs.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteNDJSON(&buf, events); err != nil {
		t.Fatalf("ndjson: %v", err)
	}
	return buf.Bytes()
}

// eventsAtOrAfter drops events stamped before the snapshot boundary.
// A resumed run replays ticks T.. only, so its stream is compared
// against the uninterrupted run's tail; build-time events (stamped
// before T on both sides) are excluded symmetrically.
func eventsAtOrAfter(events []obs.Event, from wire.Tick) []obs.Event {
	var out []obs.Event
	for _, e := range events {
		if e.Tick >= from {
			out = append(out, e)
		}
	}
	return out
}

// sameViolationCore compares violations without the flight-recorder
// dump: the recorder ring is bounded, so a resumed run that latches
// shortly after its resume point can hold less history than the
// uninterrupted run's ring, while the violation itself (what, when,
// who) must still match exactly.
func sameViolationCore(t *testing.T, label string, want, got *faultinject.Violation) {
	t.Helper()
	if (want == nil) != (got == nil) {
		t.Fatalf("%s: violation presence differs: %v vs %v", label, want, got)
	}
	if want == nil {
		return
	}
	if want.Invariant != got.Invariant || want.Tick != got.Tick ||
		want.Robot != got.Robot || want.Detail != got.Detail ||
		!reflect.DeepEqual(want.ActiveFaults, got.ActiveFaults) {
		t.Errorf("%s: violation differs:\n  want %v\n  got  %v", label, want, got)
	}
}

// checkSnapshotCell is the three-run protocol for one cell:
//
//	U — uninterrupted, collecting the full event stream (the oracle);
//	S — identical cell with SnapshotAtTicks set, proving capture is
//	    inert and harvesting the snapshots;
//	R — one resumed run per snapshot, each re-capturing its own resume
//	    point (double-encode stability) and then running to the end.
func checkSnapshotCell(t *testing.T, cfg ChaosConfig, snapTicks []wire.Tick) {
	t.Helper()
	label := cfg.Label()

	colU := obs.NewCollector()
	cfgU := cfg
	cfgU.Trace = colU
	U := RunChaos(cfgU)
	if U.ResumeError != nil {
		t.Fatalf("%s: baseline run failed: %v", label, U.ResumeError)
	}

	colS := obs.NewCollector()
	cfgS := cfg
	cfgS.Trace = colS
	cfgS.SnapshotAtTicks = snapTicks
	S := RunChaos(cfgS)
	if S.Metrics.Fingerprint != U.Metrics.Fingerprint {
		t.Fatalf("%s: enabling snapshots changed the run's fingerprint — capture is not observation-only", label)
	}
	if !reflect.DeepEqual(S.Metrics, U.Metrics) {
		t.Errorf("%s: enabling snapshots changed the chaos metrics", label)
	}
	if !reflect.DeepEqual(S.MetricsSnapshot, U.MetricsSnapshot) {
		t.Errorf("%s: enabling snapshots changed the registry snapshot", label)
	}
	if !reflect.DeepEqual(S.Violation, U.Violation) {
		t.Errorf("%s: enabling snapshots changed the violation report", label)
	}
	if !bytes.Equal(ndjsonEvents(t, colU.Events()), ndjsonEvents(t, colS.Events())) {
		t.Errorf("%s: enabling snapshots changed the NDJSON event stream", label)
	}
	if len(S.Snapshots) != len(snapTicks) {
		t.Fatalf("%s: got %d snapshots, want %d", label, len(S.Snapshots), len(snapTicks))
	}

	for i, snap := range S.Snapshots {
		if snap.Tick != snapTicks[i] {
			t.Fatalf("%s: snapshot %d at tick %d, want %d", label, i, snap.Tick, snapTicks[i])
		}
		colR := obs.NewCollector()
		cfgR := cfg
		cfgR.Trace = colR
		cfgR.ResumeFrom = snap.Data
		// Re-capturing at the resume tick must reproduce the snapshot
		// bytes exactly: restore followed by encode is the identity.
		cfgR.SnapshotAtTicks = []wire.Tick{snap.Tick}
		R := RunChaos(cfgR)
		if R.ResumeError != nil {
			t.Fatalf("%s: resume from tick %d failed: %v", label, snap.Tick, R.ResumeError)
		}
		if len(R.Snapshots) != 1 || !bytes.Equal(R.Snapshots[0].Data, snap.Data) {
			t.Errorf("%s: re-capture at resume tick %d is not byte-identical to the original snapshot", label, snap.Tick)
		}
		if R.Metrics.Fingerprint != U.Metrics.Fingerprint {
			t.Errorf("%s: resume from tick %d diverged: fingerprint %s != %s",
				label, snap.Tick, R.Metrics.Fingerprint, U.Metrics.Fingerprint)
		}
		if !reflect.DeepEqual(R.Metrics, U.Metrics) {
			t.Errorf("%s: resume from tick %d: chaos metrics differ:\n  want %+v\n  got  %+v",
				label, snap.Tick, U.Metrics, R.Metrics)
		}
		if !reflect.DeepEqual(R.MetricsSnapshot, U.MetricsSnapshot) {
			t.Errorf("%s: resume from tick %d: registry snapshot differs", label, snap.Tick)
		}
		sameViolationCore(t, label, U.Violation, R.Violation)
		wantTail := ndjsonEvents(t, eventsAtOrAfter(colU.Events(), snap.Tick))
		gotTail := ndjsonEvents(t, eventsAtOrAfter(colR.Events(), snap.Tick))
		if !bytes.Equal(wantTail, gotTail) {
			t.Errorf("%s: resume from tick %d: NDJSON event stream from the snapshot tick onward differs (%d vs %d bytes)",
				label, snap.Tick, len(wantTail), len(gotTail))
		}
	}
}

// TestSnapshotResumeDifferential is the headline matrix: three
// controllers crossed with fault profiles and seeds, two snapshot
// ticks per cell (one before the tick-80 attack, one at it).
func TestSnapshotResumeDifferential(t *testing.T) {
	cells := []struct {
		ctrl    string
		profile faultinject.Profile
		seed    uint64
	}{
		{"flocking", faultinject.ProfileMixed, 1},
		{"flocking", faultinject.ProfileNone, 2},
		{"patrol", faultinject.ProfilePartition, 3},
		{"patrol", faultinject.ProfileLoss, 4},
		{"warehouse", faultinject.ProfileGrief, 5},
		{"warehouse", faultinject.ProfileCrash, 6},
	}
	for _, c := range cells {
		c := c
		t.Run(c.ctrl+"/"+string(c.profile), func(t *testing.T) {
			t.Parallel()
			cfg := ChaosConfig{
				Controller:  c.ctrl,
				Profile:     c.profile,
				Seed:        c.seed,
				DurationSec: 30, // 120 ticks: covers the tick-80 attack
			}
			checkSnapshotCell(t, cfg, []wire.Tick{40, 80})
		})
	}
}

// TestSnapshotResumeProtocolPlanes runs the resume-equivalence
// protocol on a fragmenting radio.
func TestSnapshotResumeProtocolPlanes(t *testing.T) {
	t.Run("fragmented", func(t *testing.T) {
		t.Parallel()
		// A small MTU keeps fragment reassembly buffers live at almost
		// every boundary, exercising the sparse-buffer codec path.
		cfg := ChaosConfig{
			Controller:  "patrol",
			Profile:     faultinject.ProfileLoss,
			Seed:        9,
			DurationSec: 30,
			MTUBytes:    96,
		}
		checkSnapshotCell(t, cfg, []wire.Tick{40, 80})
	})
}

// TestSnapshotResumeAcrossAccelerators resumes the two snapshots the
// parent binary (commit 6eb7a64, the last with a brute-force path)
// captured of one cell — `-controller flocking -profile mixed -seed 11
// -n 9 -duration 30 -at 60 snapshot`, once without and once with
// `-spatial` — and holds each to the fingerprint that binary's
// brute-force resume reached (testdata/brute_record.json) and to this
// tree's uninterrupted run of the cell. The config echo never carried
// the toggle: a snapshot is a portable run state, not a record of
// which pipeline computed it. (The name predates the single path; it
// stays because the suite's floor lists it.)
func TestSnapshotResumeAcrossAccelerators(t *testing.T) {
	base := RunChaos(ChaosConfig{
		Controller:  "flocking",
		Profile:     faultinject.ProfileMixed,
		Seed:        11,
		N:           9,
		DurationSec: 30,
	})
	for _, name := range []string{"parent_brute.rbsn", "parent_indexed.rbsn"} {
		want, ok := bruteRecordFor(t).Snapshots[name]
		if !ok {
			t.Fatalf("no recorded fingerprint for %s", name)
		}
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := ResumeChaosSnapshot(data, ChaosRun{})
		if err != nil {
			t.Fatalf("%s: resume rejected: %v", name, err)
		}
		if got := resumed.Metrics.Fingerprint; got != want {
			t.Errorf("%s resumed to %s, the parent's brute-force resume to %s", name, got, want)
		}
		if resumed.Metrics.Fingerprint != base.Metrics.Fingerprint {
			t.Errorf("%s: resumed run diverges from this tree's uninterrupted run", name)
		}
		if !reflect.DeepEqual(resumed.MetricsSnapshot, base.MetricsSnapshot) {
			t.Errorf("%s: registry snapshot differs after resume", name)
		}
	}
}

// TestParentSnapshotsRecaptureAsCurrent: the two committed snapshots
// were captured while covered audit rounds still carried their request
// bytes. Resumed and captured again at the same tick, each is byte for
// byte this tree's own capture of the cell at that tick — what the
// older encoding carried beyond it is the covered rounds' bytes the
// decoder drops — and it is smaller by them.
func TestParentSnapshotsRecaptureAsCurrent(t *testing.T) {
	cfg := ChaosConfig{Controller: "flocking", Profile: faultinject.ProfileMixed, Seed: 11, N: 9, DurationSec: 30}
	fresh := cfg
	fresh.SnapshotAtTicks = []wire.Tick{60}
	want := RunChaos(fresh).Snapshots[0].Data
	for _, name := range []string{"parent_brute.rbsn", "parent_indexed.rbsn"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		resumed := cfg
		resumed.ResumeFrom = data
		resumed.SnapshotAtTicks = []wire.Tick{60}
		res := RunChaos(resumed)
		if res.ResumeError != nil || len(res.Snapshots) == 0 || res.Snapshots[0].Tick != 60 {
			t.Fatalf("%s: resume error %v, %d captures", name, res.ResumeError, len(res.Snapshots))
		}
		got := res.Snapshots[0].Data
		t.Logf("%s: %d B as committed, %d B captured again", name, len(data), len(got))
		if !bytes.Equal(got, want) {
			t.Errorf("%s captured again at tick 60 is not this tree's capture of the cell", name)
		}
		if len(got) >= len(data) {
			t.Errorf("%s: the recapture (%d B) does not shed the covered rounds' request bytes (%d B committed)", name, len(got), len(data))
		}
	}
}

// TestSnapshotResumeChaosEdges aims the resume protocol at the
// boundaries the codecs are most likely to fumble: the first and last
// tick of a partition window, a sweep across a full audit round in
// flight, and the ticks hugging a token-validity (TVal = 40 ticks)
// boundary — one tick before expiry, at it, and after it.
func TestSnapshotResumeChaosEdges(t *testing.T) {
	t.Run("partition-boundary", func(t *testing.T) {
		t.Parallel()
		cfg := ChaosConfig{
			Controller:  "flocking",
			Profile:     faultinject.ProfileNone,
			Seed:        13,
			DurationSec: 30,
			ExtraFaults: []faultinject.Fault{{
				Kind:     faultinject.Partition,
				Start:    60,
				Duration: 20,
				Targets:  []wire.RobotID{4, 5},
			}},
		}
		// 60 is the partition's first blocked tick, 80 its first healed
		// one; 79 snapshots with the partition filter still live.
		checkSnapshotCell(t, cfg, []wire.Tick{60, 79, 80})
	})
	t.Run("mid-audit-round", func(t *testing.T) {
		t.Parallel()
		cfg := ChaosConfig{
			Controller:  "flocking",
			Profile:     faultinject.ProfileNone,
			Seed:        14,
			DurationSec: 30,
		}
		// TAudit-spaced rounds are always in some phase across six
		// consecutive boundaries: requests queued, responses in flight,
		// verdicts pending.
		checkSnapshotCell(t, cfg, []wire.Tick{70, 71, 72, 73, 74, 75})
	})
	t.Run("token-expiry-boundary", func(t *testing.T) {
		t.Parallel()
		cfg := ChaosConfig{
			Controller:  "flocking",
			Profile:     faultinject.ProfileNone,
			Seed:        15,
			DurationSec: 30,
		}
		checkSnapshotCell(t, cfg, []wire.Tick{39, 40, 41})
	})
}

// TestSnapshotBeforeALatchResumesIntoIt forces a BTI violation (the
// frozen-clock attacker from the chaos suite), captures the cell 8
// ticks before the latch, and resumes the capture: it must walk
// straight back into the same violation and end on the same
// fingerprint. That is the forensic contract: hand the snapshot to a
// debugger and the crash is a few ticks away, every time.
func TestSnapshotBeforeALatchResumesIntoIt(t *testing.T) {
	attackerID := wire.RobotID(3)
	cfg := ChaosConfig{
		Controller: "flocking",
		Profile:    faultinject.ProfileNone,
		Seed:       1,
		ExtraFaults: []faultinject.Fault{{
			Kind:         faultinject.ClockSkew,
			Start:        70,
			Duration:     4000,
			Targets:      []wire.RobotID{attackerID},
			DriftPer1024: -1024,
		}},
	}
	v := RunChaos(cfg).Violation
	if v == nil {
		t.Fatal("frozen-clock cell produced no violation")
	}
	cfg.SnapshotAtTicks = []wire.Tick{v.Tick - 8}
	r := RunChaos(cfg)
	if len(r.Snapshots) != 1 {
		t.Fatalf("%d captures, want 1", len(r.Snapshots))
	}
	sameViolationCore(t, "capture-before-latch", v, r.Violation)

	resumed, err := ResumeChaosSnapshot(r.Snapshots[0].Data, ChaosRun{})
	if err != nil {
		t.Fatalf("pre-latch snapshot did not resume: %v", err)
	}
	sameViolationCore(t, "resume-into-latch", r.Violation, resumed.Violation)
	if resumed.Metrics.Fingerprint != r.Metrics.Fingerprint {
		t.Error("resumed forensic run diverged from the original")
	}
}

// TestResumeRefusesAnEchoThatDisagreesWithItsRoster: a snapshot's
// config echo sizes the cell a resume builds, so an echo whose robot
// count is not its roster's is refused before anything is built. (At
// 2^32−1 robots the cell's schedule alone asked for 8 GiB; at 70 000
// the uint16 robot IDs wrapped.)
func TestResumeRefusesAnEchoThatDisagreesWithItsRoster(t *testing.T) {
	cfg := ChaosConfig{Profile: faultinject.ProfileNone, Seed: 3, DurationSec: 10, ChaosRun: ChaosRun{SnapshotAtTicks: []wire.Tick{20}}}
	data := RunChaos(cfg).Snapshots[0].Data
	body := data[:len(data)-sha256.Size]
	echo := encodeChaosEcho(cfg.withDefaults())
	if cfg.withDefaults().N != 9 || !bytes.Contains(body, echo) {
		t.Fatal("the capture does not carry a 9-robot echo")
	}
	for _, n := range []int{math.MaxUint32, 70000, 10} {
		bad := cfg.withDefaults()
		bad.N = n
		forged := bytes.Replace(body, echo, encodeChaosEcho(bad), 1)
		sum := sha256.Sum256(forged)
		_, err := ResumeChaosSnapshot(append(forged, sum[:]...), ChaosRun{})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("asks for %d robots, its roster holds 9", n)) {
			t.Errorf("echo N=%d on a 9-robot roster: got %v, want both counts named", n, err)
		}
	}
}

// TestSnapshotResumeRejectsMismatchedConfig proves a snapshot cannot
// be resumed under a different cell: the embedded config echo must
// match byte-for-byte.
func TestSnapshotResumeRejectsMismatchedConfig(t *testing.T) {
	cfg := ChaosConfig{
		Controller:  "patrol",
		Profile:     faultinject.ProfileLoss,
		Seed:        21,
		DurationSec: 30,
		ChaosRun:    ChaosRun{SnapshotAtTicks: []wire.Tick{40}},
	}
	r := RunChaos(cfg)
	if len(r.Snapshots) != 1 {
		t.Fatalf("%d snapshots, want 1", len(r.Snapshots))
	}
	snap := r.Snapshots[0].Data

	for _, tc := range []struct {
		name   string
		mutate func(*ChaosConfig)
	}{
		{"different-seed", func(c *ChaosConfig) { c.Seed = 22 }},
		{"different-controller", func(c *ChaosConfig) { c.Controller = "flocking" }},
		{"different-profile", func(c *ChaosConfig) { c.Profile = faultinject.ProfileNone }},
		{"different-duration", func(c *ChaosConfig) { c.DurationSec = 45 }},
	} {
		bad := cfg
		bad.SnapshotAtTicks = nil
		bad.ResumeFrom = snap
		tc.mutate(&bad)
		res := RunChaos(bad)
		if res.ResumeError == nil {
			t.Errorf("%s: mismatched config accepted for resume", tc.name)
		}
	}

	// Corrupt bytes are rejected before any run state is touched.
	mut := append([]byte(nil), snap...)
	mut[len(mut)/2] ^= 0x01
	if _, err := ResumeChaosSnapshot(mut, ChaosRun{}); err == nil {
		t.Error("corrupt snapshot accepted by ResumeChaosSnapshot")
	}

	// And the happy path round-trips through the embedded echo alone.
	res, err := ResumeChaosSnapshot(snap, ChaosRun{})
	if err != nil {
		t.Fatalf("ResumeChaosSnapshot: %v", err)
	}
	if res.Metrics.Fingerprint != r.Metrics.Fingerprint {
		t.Error("ResumeChaosSnapshot diverged from the original run")
	}
}

// TestChaosTickLoopBoundaries pins the tick loop's boundary contract:
// Interrupt is polled once at each boundary start..total−1 and never at
// total (a caller stamping ticks from the hook relies on that), on a
// fresh run and on a resumed one; a capture at total lands; capture
// ticks before a resume point are never reached; and an interrupt at t
// checkpoints t, resuming to the uninterrupted fingerprint.
func TestChaosTickLoopBoundaries(t *testing.T) {
	cfg := ChaosConfig{Profile: faultinject.ProfileNone, Seed: 3, DurationSec: 10}
	total := wire.Tick(cfg.DurationSec * TicksPerSecond)
	whole := cfg
	whole.SnapshotAtTicks = []wire.Tick{20, total}
	U := RunChaos(whole)
	if len(U.Snapshots) != 2 || U.Snapshots[1].Tick != total {
		t.Fatalf("asked for captures at 20 and %d, got %d", total, len(U.Snapshots))
	}

	// interruptAt stops the run at its k-th poll (never, for k = 0) and
	// counts the polls.
	interruptAt := func(c ChaosConfig, k int) (ChaosResult, int) {
		polls := 0
		c.Interrupt = func() bool { polls++; return polls == k }
		return RunChaos(c), polls
	}
	for _, start := range []wire.Tick{0, 20} {
		c := cfg
		if start > 0 {
			c.ResumeFrom = U.Snapshots[0].Data
		}
		span := int(total - start)
		if res, polls := interruptAt(c, 0); polls != span || res.Interrupted ||
			res.Metrics.Fingerprint != U.Metrics.Fingerprint {
			t.Errorf("from %d: %d polls (want %d), interrupted %v, fingerprint match %v",
				start, polls, span, res.Interrupted, res.Metrics.Fingerprint == U.Metrics.Fingerprint)
		}
		for _, k := range []int{1, span / 2, span} {
			res, _ := interruptAt(c, k)
			at := start + wire.Tick(k-1)
			if !res.Interrupted || res.Checkpoint == nil || res.Checkpoint.Tick != at {
				t.Fatalf("from %d, poll %d: interrupted %v, want a checkpoint at tick %d",
					start, k, res.Interrupted, at)
			}
			resumed, err := ResumeChaosSnapshot(res.Checkpoint.Data, ChaosRun{})
			if err != nil || resumed.Metrics.Fingerprint != U.Metrics.Fingerprint {
				t.Errorf("checkpoint at %d resumes to %s (err %v), want %s",
					at, resumed.Metrics.Fingerprint, err, U.Metrics.Fingerprint)
			}
		}
	}

	resumed := cfg
	resumed.ResumeFrom = U.Snapshots[0].Data
	resumed.SnapshotAtTicks = []wire.Tick{10, 19, 20, 30, total}
	var got []wire.Tick
	for _, s := range RunChaos(resumed).Snapshots {
		got = append(got, s.Tick)
	}
	if want := []wire.Tick{20, 30, total}; !reflect.DeepEqual(got, want) {
		t.Errorf("resumed at 20, captures at %v, want %v", got, want)
	}
}

// TestResultsRecordTheCellOnly: a result's Config is the cell that
// ran with a zero ChaosRun, whatever wiring the run carried — a run
// interrupted mid-way, its resume, and a resume that failed — so a
// result pins no collector, timer or interrupt closure, and
// VerifyChaosResume re-runs it as it stands: a run interrupted and
// then resumed with a tracer and an interrupt hook attached still
// matches the cell run uninterrupted.
func TestResultsRecordTheCellOnly(t *testing.T) {
	cfg := ChaosConfig{Profile: faultinject.ProfileMixed, Seed: 2, DurationSec: 30}
	// wiring attaches everything a run can carry; its interrupt fires at
	// poll k (never, for k = 0).
	wiring := func(k int) ChaosRun {
		polls := 0
		return ChaosRun{
			Trace:           obs.NewCollector(),
			SnapshotAtTicks: []wire.Tick{30},
			Interrupt:       func() bool { polls++; return polls == k },
			Perf:            perf.NewPhaseTimer(nil),
			PerfRuntime:     perf.NewRuntimeSampler(0),
		}
	}
	cellOnly := func(what string, res ChaosResult) {
		t.Helper()
		run := reflect.ValueOf(res.Config.ChaosRun)
		for i := range run.NumField() {
			if !run.Field(i).IsZero() {
				t.Errorf("%s: the result's Config keeps its %s", what, run.Type().Field(i).Name)
			}
		}
	}

	whole := RunChaos(cfg)
	cellOnly("an unwired run", whole)
	head := cfg
	head.ChaosRun = wiring(40)
	first := RunChaos(head)
	cellOnly("an interrupted run", first)
	if !first.Interrupted || len(first.Snapshots) != 1 {
		t.Fatalf("interrupted %v with %d captures, want a checkpoint and the capture at 30",
			first.Interrupted, len(first.Snapshots))
	}
	resumed, err := ResumeChaosSnapshot(first.Checkpoint.Data, wiring(0))
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	cellOnly("a resumed run", resumed)
	if resumed.Metrics.Fingerprint != whole.Metrics.Fingerprint {
		t.Errorf("the resumed run's fingerprint %s, want the uninterrupted %s",
			resumed.Metrics.Fingerprint, whole.Metrics.Fingerprint)
	}
	if v := VerifyChaosResume(resumed); !v.FingerprintMatch || !v.MetricsMatch {
		t.Errorf("VerifyChaosResume: fingerprint match %v, metrics match %v, want both",
			v.FingerprintMatch, v.MetricsMatch)
	}

	bad := cfg
	bad.ChaosRun = wiring(0)
	bad.ResumeFrom = []byte{1}
	if res := RunChaos(bad); res.ResumeError == nil {
		t.Error("a one-byte ResumeFrom resumed")
	} else {
		cellOnly("a failed resume", res)
	}
}

// TestChaosEchoMTUFloor: an echo naming an MTU RunChaos would refuse
// does not decode, so a hostile snapshot cannot reach that panic.
func TestChaosEchoMTUFloor(t *testing.T) {
	for _, c := range []struct {
		mtu int
		ok  bool
	}{{0, true}, {11, false}, {faultinject.MinMTUBytes - 1, false}, {faultinject.MinMTUBytes, true}, {66, true}} {
		echo := encodeChaosEcho(ChaosConfig{Profile: faultinject.ProfileNone, MTUBytes: c.mtu}.withDefaults())
		cfg, err := decodeChaosEcho(echo)
		if ok := err == nil; ok != c.ok {
			t.Errorf("echo with MTU %d: err = %v, want accepted %v", c.mtu, err, c.ok)
		} else if ok && cfg.MTUBytes != c.mtu {
			t.Errorf("echo with MTU %d decodes to MTU %d", c.mtu, cfg.MTUBytes)
		}
	}
}

// TestChaosEchoAttackTime: an echo carrying an attack time Check
// refuses does not decode, so a snapshot cannot carry one into resume.
func TestChaosEchoAttackTime(t *testing.T) {
	for _, c := range []struct {
		at float64
		ok bool
	}{{20, true}, {0.25, true}, {-5, false}, {math.Inf(1), false}, {1e9, false}} {
		cfg := ChaosConfig{Profile: faultinject.ProfileNone}.withDefaults()
		cfg.AttackAtSec = c.at
		if _, err := decodeChaosEcho(encodeChaosEcho(cfg)); (err == nil) != c.ok {
			t.Errorf("echo with AttackAtSec %g: err = %v, want accepted %v", c.at, err, c.ok)
		}
	}
}

// TestChaosEchoNames: an echo naming a controller or profile the cell
// does not know does not decode, and RunChaos panics on one naming it,
// so a misspelling never runs some other cell under its label.
func TestChaosEchoNames(t *testing.T) {
	for _, c := range []struct {
		controller string
		profile    faultinject.Profile
		bad        string // the name an unknown cell must be refused for; "" for a known cell
	}{
		{"patrol", faultinject.ProfileLoss, ""},
		{"flockin", faultinject.ProfileNone, "flockin"},
		{"warehouse", "mixd", "mixd"},
	} {
		cfg := ChaosConfig{Controller: c.controller, Profile: c.profile}.withDefaults()
		_, err := decodeChaosEcho(encodeChaosEcho(cfg))
		if c.bad == "" {
			if err != nil {
				t.Errorf("echo of %s/%s refused: %v", c.controller, c.profile, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(c.bad)) {
			t.Errorf("echo of %s/%s: err = %v, want a refusal naming %q", c.controller, c.profile, err, c.bad)
		}
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, strconv.Quote(c.bad)) {
					t.Errorf("RunChaos(%s/%s): recovered %q, want a panic naming %q", c.controller, c.profile, msg, c.bad)
				}
			}()
			RunChaos(cfg)
		}()
	}
}

// FuzzChaosEcho: decoding a snapshot's config echo never panics, and
// an echo it accepts re-encodes to the same bytes.
func FuzzChaosEcho(f *testing.F) {
	for _, cfg := range []ChaosConfig{
		{},
		{Controller: "patrol", Profile: faultinject.ProfileLoss, Seed: 4, DurationSec: 30, MTUBytes: 96},
		{Profile: faultinject.ProfileNone, ExtraFaults: []faultinject.Fault{{
			Kind: faultinject.ClockSkew, Start: 56, Duration: 24, Targets: []wire.RobotID{2, 8},
			OffsetTicks: 4, DriftPer1024: -5,
		}}},
	} {
		f.Add(encodeChaosEcho(cfg.withDefaults()))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		cfg, err := decodeChaosEcho(b)
		if err != nil {
			return
		}
		if again := encodeChaosEcho(cfg); !bytes.Equal(again, b) {
			t.Fatalf("accepted echo re-encodes differently:\n in  %x\n out %x", b, again)
		}
	})
}
