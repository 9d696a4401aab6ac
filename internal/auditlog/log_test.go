package auditlog

import (
	"bytes"
	"testing"
	"testing/quick"

	"roborebound/internal/cryptolite"
	"roborebound/internal/wire"
)

func entry(i int) wire.LogEntry {
	return wire.LogEntry{Kind: wire.EntryRecv, Payload: []byte{byte(i)}}
}

// segEntries decodes a segment's window, as an auditor would.
func segEntries(t testing.TB, seg Segment) []wire.LogEntry {
	t.Helper()
	entries, err := wire.DecodeLogEntries(seg.Encoded)
	if err != nil {
		t.Fatalf("segment does not decode: %v", err)
	}
	return entries
}

func ckpt(t wire.Tick, state string) Checkpoint {
	return Checkpoint{
		Time:  t,
		AuthS: wire.Authenticator{NodeKind: wire.NodeS, T: t, ID: 1},
		AuthA: wire.Authenticator{NodeKind: wire.NodeA, T: t, ID: 1},
		State: []byte(state),
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	c := ckpt(42, "controller-state")
	got, err := DecodeCheckpoint(c.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Time != c.Time || got.AuthS != c.AuthS || got.AuthA != c.AuthA ||
		!bytes.Equal(got.State, c.State) {
		t.Errorf("round trip mismatch: %+v vs %+v", got, c)
	}
	if got.Hash() != c.Hash() {
		t.Error("hash changed across round trip")
	}
	if c.EncodedSize() != len(c.Encode()) {
		t.Error("EncodedSize disagrees with Encode")
	}
}

func TestCheckpointHashSensitive(t *testing.T) {
	a := ckpt(1, "s")
	b := ckpt(2, "s")
	c := ckpt(1, "t")
	if a.Hash() == b.Hash() || a.Hash() == c.Hash() {
		t.Error("checkpoint hash not sensitive to fields")
	}
	d := a
	d.AuthA.Top[0] ^= 1
	if a.Hash() == d.Hash() {
		t.Error("checkpoint hash ignores authenticators")
	}
}

func TestCheckpointDecodeRejectsJunk(t *testing.T) {
	f := func(b []byte) bool {
		DecodeCheckpoint(b)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	c := ckpt(1, "x")
	enc := c.Encode()
	if _, err := DecodeCheckpoint(enc[:len(enc)-1]); err == nil {
		t.Error("truncated checkpoint accepted")
	}
	if _, err := DecodeCheckpoint(append(enc, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}

func TestLogStartsAtBoot(t *testing.T) {
	l := New()
	if !l.FromBoot() || l.Start() != nil || l.EntryCount() != 0 {
		t.Error("fresh log should start at boot, empty")
	}
	if _, ok := l.LatestCheckpoint(); ok {
		t.Error("fresh log has no checkpoints")
	}
}

func TestSegmentFromBoot(t *testing.T) {
	l := New()
	l.Append(entry(0))
	l.Append(entry(1))
	cp := ckpt(10, "s1")
	l.AddCheckpoint(cp)
	l.Append(entry(2)) // after the checkpoint: not in the segment

	seg, err := l.SegmentTo(cp.Hash())
	if err != nil {
		t.Fatal(err)
	}
	if !seg.FromBoot || seg.Start != nil {
		t.Error("segment should start at boot")
	}
	if n := len(segEntries(t, seg)); n != 2 {
		t.Errorf("segment has %d entries, want 2", n)
	}
	if seg.EndHash != cp.Hash() {
		t.Error("segment end hash mismatch")
	}
}

func TestMarkCoveredTruncates(t *testing.T) {
	l := New()
	l.Append(entry(0))
	cp1 := ckpt(10, "s1")
	l.AddCheckpoint(cp1)
	l.Append(entry(1))
	l.Append(entry(2))
	cp2 := ckpt(20, "s2")
	l.AddCheckpoint(cp2)
	l.Append(entry(3))

	tokens := []wire.Token{{Auditor: 2, Auditee: 1, HCkpt: cp1.Hash()}}
	if err := l.MarkCovered(cp1.Hash(), tokens); err != nil {
		t.Fatal(err)
	}
	if l.FromBoot() {
		t.Error("log still claims boot start after coverage")
	}
	if l.Start() == nil || l.Start().CP.Hash() != cp1.Hash() {
		t.Error("start checkpoint not installed")
	}
	// Entry 0 (before cp1) must be gone; entries 1..3 retained.
	if l.EntryCount() != 3 {
		t.Errorf("retained %d entries, want 3", l.EntryCount())
	}
	// cp2's segment must now start at cp1 and contain entries 1,2.
	seg, err := l.SegmentTo(cp2.Hash())
	if err != nil {
		t.Fatal(err)
	}
	if seg.FromBoot || seg.Start == nil {
		t.Fatal("segment should start at covered checkpoint")
	}
	if entries := segEntries(t, seg); len(entries) != 2 ||
		entries[0].Payload[0] != 1 || entries[1].Payload[0] != 2 {
		t.Errorf("segment entries wrong: %+v", entries)
	}
	if len(seg.Start.Tokens) != 1 {
		t.Error("start tokens not carried")
	}
}

func TestMarkCoveredUnknownHash(t *testing.T) {
	l := New()
	var h cryptolite.ChainHash
	h[0] = 0xFF
	if err := l.MarkCovered(h, nil); err == nil {
		t.Error("unknown checkpoint accepted")
	}
	if _, err := l.SegmentTo(h); err == nil {
		t.Error("segment for unknown checkpoint accepted")
	}
}

func TestMarkCoveredSkipsIntermediate(t *testing.T) {
	// If cp1's tokens never arrive but cp2's do (multi-checkpoint
	// segment), covering cp2 must discard cp1 and everything before.
	l := New()
	l.Append(entry(0))
	cp1 := ckpt(10, "s1")
	l.AddCheckpoint(cp1)
	l.Append(entry(1))
	cp2 := ckpt(20, "s2")
	l.AddCheckpoint(cp2)
	l.Append(entry(2))

	if err := l.MarkCovered(cp2.Hash(), nil); err != nil {
		t.Fatal(err)
	}
	if l.PendingCheckpoints() != 0 {
		t.Errorf("pending checkpoints = %d, want 0", l.PendingCheckpoints())
	}
	if l.EntryCount() != 1 {
		t.Errorf("retained %d entries, want 1", l.EntryCount())
	}
	if _, err := l.SegmentTo(cp1.Hash()); err == nil {
		t.Error("discarded checkpoint still addressable")
	}
}

func TestStorageBoundedUnderSteadyState(t *testing.T) {
	// Steady state: every audit round appends entries, adds a
	// checkpoint, and covers it next round. Storage must stay bounded.
	l := New()
	var lastHash cryptolite.ChainHash
	var have bool
	peak := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 20; i++ {
			l.Append(entry(i))
		}
		cp := ckpt(wire.Tick(round), "state")
		l.AddCheckpoint(cp)
		if have {
			if err := l.MarkCovered(lastHash, make([]wire.Token, 4)); err != nil {
				t.Fatal(err)
			}
		}
		lastHash, have = cp.Hash(), true
		if s := l.StorageBytes(); s > peak {
			peak = s
		}
	}
	final := l.StorageBytes()
	// ~2 rounds of entries + 2 checkpoints; generous bound.
	if final > 4096 {
		t.Errorf("steady-state storage %dB, want bounded", final)
	}
	if l.Truncations() != 49 {
		t.Errorf("truncations = %d, want 49", l.Truncations())
	}
	_ = peak
}

func TestStorageGrowsWithoutCoverage(t *testing.T) {
	// A partitioned robot that can't collect tokens keeps everything —
	// that's what eventually drives it into Safe Mode, not data loss.
	l := New()
	base := l.StorageBytes()
	for round := 0; round < 10; round++ {
		for i := 0; i < 20; i++ {
			l.Append(entry(i))
		}
		l.AddCheckpoint(ckpt(wire.Tick(round), "state"))
	}
	if l.StorageBytes() <= base {
		t.Error("storage should grow without token coverage")
	}
	if l.PendingCheckpoints() != 10 {
		t.Errorf("pending = %d", l.PendingCheckpoints())
	}
}

func TestSegmentEntriesExcludePostCheckpoint(t *testing.T) {
	l := New()
	cp := ckpt(5, "s")
	l.AddCheckpoint(cp) // checkpoint with zero prior entries
	l.Append(entry(9))
	seg, err := l.SegmentTo(cp.Hash())
	if err != nil {
		t.Fatal(err)
	}
	if len(seg.Encoded) != 0 {
		t.Error("post-checkpoint entries leaked into segment")
	}
}

// Property: under any interleaving of appends, checkpoints, and
// coverage events, the log maintains its invariants — retained entries
// start at the covered checkpoint, segment extraction matches what was
// appended since, and storage is the sum of its parts. The test keeps
// its own model of the retained entries; the log holds only their
// encoding, compacted in place on every cover. A snapshot round trip
// mid-sequence must restore a log whose every segment still matches
// the model.
func TestLogRandomizedInvariants(t *testing.T) {
	type op struct {
		Kind byte // 0..5: append, checkpoint, cover-latest, segment-latest, snapshot round trip, cover-earliest
	}
	f := func(ops []op, seedByte byte) bool {
		l := New()
		var hashes []cryptolite.ChainHash
		var ats []int             // len(model) at each pending checkpoint
		var model []wire.LogEntry // entries the log should retain
		latestAt := 0             // len(model) at the latest pending checkpoint
		covered := 0
		for i, o := range ops {
			switch o.Kind % 6 {
			case 0:
				l.Append(entry(i))
				model = append(model, entry(i))
			case 1:
				cp := ckpt(wire.Tick(i), string(rune('a'+i%26)))
				l.AddCheckpoint(cp)
				hashes = append(hashes, cp.Hash())
				ats = append(ats, len(model))
				latestAt = len(model)
			case 2:
				if len(hashes) > 0 {
					if err := l.MarkCovered(hashes[len(hashes)-1], nil); err != nil {
						return false
					}
					covered++
					hashes, ats = hashes[:0], ats[:0]
					model = model[latestAt:]
				}
			case 3:
				if len(hashes) > 0 {
					seg, err := l.SegmentTo(hashes[len(hashes)-1])
					if err != nil {
						return false
					}
					// Entries after the latest checkpoint are excluded,
					// and the window is the retained entries' encoding,
					// byte for byte (AccountingError checks only its
					// headers, sizes and positions).
					if !bytes.Equal(seg.Encoded, wire.EncodeLogEntries(model[:latestAt])) {
						return false
					}
				}
			case 4:
				restored := New()
				if err := restored.RestoreState(l.EncodeState()); err != nil {
					return false
				}
				l = restored
				for j, h := range hashes {
					seg, err := l.SegmentTo(h)
					if err != nil || !bytes.Equal(seg.Encoded, wire.EncodeLogEntries(model[:ats[j]])) {
						return false
					}
				}
			case 5:
				// Covering the earliest pending checkpoint keeps the later
				// ones, which now sit that many entries nearer the start.
				if len(hashes) > 0 {
					if err := l.MarkCovered(hashes[0], nil); err != nil {
						return false
					}
					covered++
					cut := ats[0]
					model = model[cut:]
					hashes, ats = hashes[1:], ats[1:]
					for j := range ats {
						ats[j] -= cut
					}
					latestAt -= cut
				}
			}
			if l.EntryCount() != len(model) || l.AccountingError() != nil {
				return false
			}
		}
		if covered > 0 && l.FromBoot() {
			return false
		}
		if l.Truncations() != covered {
			return false
		}
		return l.StorageBytes() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAppendDoesNotAllocateOnWarmedWindow pins the steady state the
// in-place compaction buys: once a round has grown the window, covering
// it keeps the storage, and the next round's appends reuse it.
func TestAppendDoesNotAllocateOnWarmedWindow(t *testing.T) {
	l := New()
	payload := make([]byte, 34)
	e := wire.LogEntry{Kind: wire.EntryRecv, Payload: payload}
	const round = 2000
	for i := 0; i < round; i++ {
		l.Append(e)
	}
	cp := ckpt(1, "warm")
	l.AddCheckpoint(cp)
	if err := l.MarkCovered(cp.Hash(), nil); err != nil {
		t.Fatal(err)
	}
	if l.EntryCount() != 0 {
		t.Fatalf("cover retained %d entries, want 0", l.EntryCount())
	}
	// 11 batches of 100 (AllocsPerRun warms up once) stay inside the
	// 2000-entry window the first round left behind.
	if n := testing.AllocsPerRun(10, func() {
		for i := 0; i < 100; i++ {
			l.Append(e)
		}
	}); n != 0 {
		t.Errorf("Append allocates %v per 100 entries on a warmed window, want 0", n)
	}
	if err := l.AccountingError(); err != nil {
		t.Error(err)
	}
}

// entryStarts parses the window's entry headers and returns where each
// entry starts.
func entryStarts(l *Log) []int {
	var starts []int
	for n := 0; n < len(l.encoded); n += 2 + int(l.encoded[n+1]) {
		starts = append(starts, n)
	}
	return starts
}

// TestAccountingErrorLatches corrupts each piece of the incrementally
// maintained accounting in turn. AccountingError re-parses the window
// from its first byte, so every one of them must be reported — it is
// the chaos checker's conservation-log invariant, and a recount that
// trusted the fields it is checking would never fire.
func TestAccountingErrorLatches(t *testing.T) {
	build := func() *Log {
		l := New()
		for i := 0; i < 5; i++ {
			l.Append(wire.LogEntry{Kind: wire.EntryRecv, Payload: make([]byte, 3+i)})
		}
		cp := ckpt(1, "s")
		l.AddCheckpoint(cp)
		l.Append(entry(9))
		if err := l.MarkCovered(cp.Hash(), nil); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if i == 2 {
				l.AddCheckpoint(ckpt(2, "pending"))
			}
			l.Append(wire.LogEntry{Kind: wire.EntrySensor, Payload: make([]byte, 2*i)})
		}
		if l.PendingCheckpoints() != 1 {
			t.Fatalf("%d pending checkpoints, want 1", l.PendingCheckpoints())
		}
		if err := l.AccountingError(); err != nil {
			t.Fatalf("clean log reported: %v", err)
		}
		return l
	}
	for _, c := range []struct {
		name    string
		corrupt func(l *Log)
	}{
		{"entry count one over", func(l *Log) { l.entries++ }},
		{"entry count one under", func(l *Log) { l.entries-- }},
		{"truncated final header", func(l *Log) {
			// Cut the window one byte into the last entry's header.
			starts := entryStarts(l)
			l.encoded = l.encoded[:starts[len(starts)-1]+1]
			l.entryBytes = len(l.encoded)
		}},
		{"truncated final payload", func(l *Log) {
			l.Append(wire.LogEntry{Kind: wire.EntryRecv, Payload: make([]byte, 8)})
			l.encoded = l.encoded[:len(l.encoded)-1]
			l.entryBytes = len(l.encoded)
		}},
		{"checkpoint position one over", func(l *Log) { l.pending[0].pos++ }},
		{"checkpoint index one over", func(l *Log) { l.pending[0].index++ }},
		{"checkpoint index past the window", func(l *Log) { l.pending[0].index = l.entries + 1 }},
		{"entryBytes one over", func(l *Log) { l.entryBytes++ }},
		{"entryBytes one under", func(l *Log) { l.entryBytes-- }},
		{"length byte rewritten", func(l *Log) { l.encoded[entryStarts(l)[1]+1]++ }},
		{"unknown kind byte", func(l *Log) { l.encoded[entryStarts(l)[2]] = 0 }},
	} {
		l := build()
		c.corrupt(l)
		if err := l.AccountingError(); err == nil {
			t.Errorf("%s: AccountingError did not report it", c.name)
		}
	}
}

// writerCheckpoint renders a checkpoint field by field through a
// wire.Writer — the layout Encode had before it was append-style — so
// the tests below hold the retained encodings to the format itself
// rather than to the code that produces them.
func writerCheckpoint(c Checkpoint) []byte {
	w := wire.NewWriter(0)
	w.U64(uint64(c.Time))
	for _, a := range []wire.Authenticator{c.AuthS, c.AuthA} {
		w.U8(a.NodeKind)
		w.U64(uint64(a.T))
		w.Raw(a.Top[:])
		w.U16(uint16(a.ID))
		w.Raw(a.Mac[:])
	}
	w.Blob(c.State)
	return w.Bytes()
}

// TestCheckpointEncodedOnceAndRetained: the log keeps, beside each
// checkpoint's hash, the bytes the hash was taken over, and hands the
// same bytes out as a round's end checkpoint, as the next round's start
// checkpoint, and to the snapshot — equal to cp.Encode() and to the
// format, and the very same array, not a re-encoding.
func TestCheckpointEncodedOnceAndRetained(t *testing.T) {
	cp1, cp2 := ckpt(7, "first-state"), ckpt(11, "")
	cp1.AuthS.Top[3], cp1.AuthA.Mac[7], cp2.AuthA.ID = 0xAB, 0xCD, wire.Broadcast
	l := New()
	l.Append(entry(1))
	h1 := l.AddCheckpoint(cp1)
	if h1 != cp1.Hash() {
		t.Errorf("AddCheckpoint returned %x, want the checkpoint's hash %x", h1, cp1.Hash())
	}
	seg1, err := l.SegmentTo(h1)
	if err != nil {
		t.Fatal(err)
	}
	if seg1.StartEnc != nil {
		t.Error("from-boot segment carries a start encoding")
	}
	for _, want := range [][]byte{cp1.Encode(), writerCheckpoint(cp1)} {
		if !bytes.Equal(seg1.EndEnc, want) {
			t.Errorf("retained encoding %x, want %x", seg1.EndEnc, want)
		}
	}
	if cryptolite.SHA1Sum(seg1.EndEnc) != seg1.EndHash {
		t.Error("EndHash is not the hash of the retained encoding")
	}

	if err := l.MarkCovered(h1, []wire.Token{{Auditor: 2, Auditee: 1, HCkpt: h1}}); err != nil {
		t.Fatal(err)
	}
	l.Append(entry(2))
	seg2, err := l.SegmentTo(l.AddCheckpoint(cp2))
	if err != nil {
		t.Fatal(err)
	}
	if &seg2.StartEnc[0] != &seg1.EndEnc[0] || len(seg2.StartEnc) != len(seg1.EndEnc) {
		t.Error("the covered checkpoint was re-encoded for the next round's start")
	}
	if !bytes.Equal(seg2.EndEnc, writerCheckpoint(cp2)) {
		t.Errorf("empty-state checkpoint retained as %x, want %x", seg2.EndEnc, writerCheckpoint(cp2))
	}
	if n := testing.AllocsPerRun(10, func() {
		if _, err := l.SegmentTo(seg2.EndHash); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("SegmentTo allocates %v times, want 0 (it shares the retained encodings)", n)
	}
}

// TestSnapshotBytesWithPendingCheckpoints holds the snapshot of a log
// with a covered start and two pending checkpoints to a hand-built
// blob: the codec writes the retained encodings now, and the bytes —
// and what a restore rebuilds from them — must not have moved.
func TestSnapshotBytesWithPendingCheckpoints(t *testing.T) {
	start, p1, p2 := ckpt(4, "covered"), ckpt(8, "pending-one"), ckpt(12, "pending-two")
	tok := wire.Token{Auditor: 3, Auditee: 1, T: 4, HCkpt: start.Hash()}
	l := New()
	l.Append(entry(0))
	l.AddCheckpoint(start)
	l.Append(entry(1)) // logged after the checkpoint: survives the cover
	if err := l.MarkCovered(start.Hash(), []wire.Token{tok}); err != nil {
		t.Fatal(err)
	}
	l.Append(entry(2))
	l.AddCheckpoint(p1)
	l.Append(entry(3))
	l.AddCheckpoint(p2)

	w := wire.NewWriter(0)
	w.U8(0) // not from boot
	w.U8(1) // has a covered start
	w.Blob(writerCheckpoint(start))
	w.U32(1)
	w.Raw(tok.Encode())
	var window []byte
	for _, i := range []int{1, 2, 3} {
		e := entry(i)
		window = wire.AppendLogEntry(window, &e)
	}
	w.Blob(window)
	w.U32(2)
	w.Blob(writerCheckpoint(p1))
	w.U32(2) // entries before pending-one
	w.Blob(writerCheckpoint(p2))
	w.U32(3)
	w.U32(1) // truncations
	want := w.Bytes()

	got := l.EncodeState()
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot bytes moved:\n got %x\nwant %x", got, want)
	}
	restored := New()
	if err := restored.RestoreState(want); err != nil {
		t.Fatal(err)
	}
	again := restored.EncodeState()
	if !bytes.Equal(again, want) {
		t.Errorf("restore → snapshot is not the identity:\n got %x\nwant %x", again, want)
	}
	seg, err := restored.SegmentTo(p2.Hash())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seg.StartEnc, start.Encode()) || !bytes.Equal(seg.EndEnc, p2.Encode()) {
		t.Error("restore did not rebuild the retained checkpoint encodings")
	}
}
