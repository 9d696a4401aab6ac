package auditlog

import (
	"errors"
	"fmt"

	"roborebound/internal/cryptolite"
	"roborebound/internal/wire"
)

// CoveredCheckpoint is a checkpoint together with the f_max+1 tokens
// that cover it; an audit request must present both so the auditor can
// trust the segment's starting state (§3.7).
type CoveredCheckpoint struct {
	CP     Checkpoint
	Tokens []wire.Token
}

// pendingCheckpoint keeps the checkpoint's canonical encoding beside
// the hash taken over it: the round that created it ships those bytes
// as its end checkpoint, the next round as its start, and a snapshot
// writes them, so a checkpoint is encoded once in its life. enc is
// written once and then only read — holders share it without copying.
type pendingCheckpoint struct {
	cp    Checkpoint
	enc   []byte
	hash  cryptolite.ChainHash
	index int // number of log entries recorded before this checkpoint
}

func newPending(cp Checkpoint, index int) pendingCheckpoint {
	enc := cp.Encode()
	return pendingCheckpoint{cp: cp, enc: enc, hash: cryptolite.SHA1Sum(enc), index: index}
}

// Log is the c-node's retained window of its tamper-evident log. It
// maintains the §3.6 invariant: the retained entries always start
// either at boot or at a token-covered checkpoint, and everything
// before the most recent covered checkpoint has been discarded.
//
// The window is held in one representation: the retained entries'
// concatenated wire encoding, which is what audit requests ship every
// round (Segment.Encoded) and what the snapshot codec serializes.
// Append copies the entry's bytes onto its end, MarkCovered compacts it
// in place, so a warmed log allocates nothing; nobody on the c-node
// reads a logged payload back, so no decoded copy is kept.
type Log struct {
	fromBoot bool
	start    *CoveredCheckpoint // nil ⇔ fromBoot
	startEnc []byte             // start.CP's encoding, nil ⇔ fromBoot
	pending  []pendingCheckpoint

	// encoded is the concatenation of the retained entries' encodings;
	// offsets[i] is the byte position of entry i within it, so any
	// checkpoint-aligned prefix is a slice, not an encode.
	encoded []byte
	offsets []int

	entryBytes int
	// truncations counts MarkCovered-driven discards, for tests.
	truncations int
}

// New returns an empty log starting at boot.
func New() *Log {
	return &Log{fromBoot: true}
}

// Append records one input/output entry. The payload is copied into
// the window, so the caller's bytes may be borrowed scratch.
func (l *Log) Append(e wire.LogEntry) {
	l.offsets = append(l.offsets, len(l.encoded))
	l.encoded = wire.AppendLogEntry(l.encoded, &e)
	l.entryBytes += e.EncodedSize()
}

// AddCheckpoint records a checkpoint at the current log position and
// returns its hash, the handle SegmentTo and MarkCovered take. The
// caller (the protocol engine) creates one per audit round, right
// before requesting audits.
func (l *Log) AddCheckpoint(cp Checkpoint) cryptolite.ChainHash {
	p := newPending(cp, len(l.offsets))
	l.pending = append(l.pending, p)
	return p.hash
}

// ErrUnknownCheckpoint is returned when a hash matches no retained
// checkpoint.
var ErrUnknownCheckpoint = errors.New("auditlog: unknown checkpoint")

// offsetAt returns the byte position of entry i within the encoded
// window (i == EntryCount() addresses its end).
func (l *Log) offsetAt(i int) int {
	if i < len(l.offsets) {
		return l.offsets[i]
	}
	return len(l.encoded)
}

// MarkCovered installs the tokens covering the checkpoint with the
// given hash and truncates: entries before that checkpoint and all
// earlier checkpoints are discarded. This is what keeps c-node storage
// constant (§3.6, §5.2). The window is compacted in place — a log in
// steady state reuses the same storage round after round — so segments
// handed out earlier are invalidated (see SegmentTo).
func (l *Log) MarkCovered(hash cryptolite.ChainHash, tokens []wire.Token) error {
	for i, p := range l.pending {
		if p.hash != hash {
			continue
		}
		cut := l.offsetAt(p.index)
		l.encoded = l.encoded[:copy(l.encoded, l.encoded[cut:])]
		kept := l.offsets[p.index:]
		for j, o := range kept {
			l.offsets[j] = o - cut
		}
		l.offsets = l.offsets[:len(kept)]
		l.entryBytes = len(l.encoded)
		tail := l.pending[i+1:]
		for j := range tail {
			tail[j].index -= p.index
		}
		// Clear the vacated records: they hold checkpoint state blobs.
		n := copy(l.pending, tail)
		clear(l.pending[n:])
		l.pending = l.pending[:n]
		l.start = &CoveredCheckpoint{CP: p.cp, Tokens: append([]wire.Token(nil), tokens...)}
		l.startEnc = p.enc
		l.fromBoot = false
		l.truncations++
		return nil
	}
	return ErrUnknownCheckpoint
}

// Segment describes one auditable span: from the covered start (or
// boot) to a given pending checkpoint.
type Segment struct {
	FromBoot bool
	Start    *CoveredCheckpoint // nil ⇔ FromBoot
	End      Checkpoint
	EndHash  cryptolite.ChainHash
	// StartEnc and EndEnc are Start.CP's and End's canonical encodings
	// (StartEnc nil ⇔ FromBoot), the ones their hashes were taken over.
	// The log shares them, so they are read-only to the caller.
	StartEnc, EndEnc []byte
	// Encoded is the segment's entries in their concatenated wire
	// encoding (wire.DecodeLogEntries parses it).
	Encoded []byte
}

// SegmentTo builds the segment ending at the pending checkpoint with
// the given hash. The returned encoding aliases the log's storage and
// is valid until the next MarkCovered; the caller copies what it keeps.
func (l *Log) SegmentTo(hash cryptolite.ChainHash) (Segment, error) {
	for _, p := range l.pending {
		if p.hash != hash {
			continue
		}
		return Segment{
			FromBoot: l.fromBoot,
			Start:    l.start,
			End:      p.cp,
			EndHash:  p.hash,
			StartEnc: l.startEnc,
			EndEnc:   p.enc,
			Encoded:  l.encoded[:l.offsetAt(p.index)],
		}, nil
	}
	return Segment{}, ErrUnknownCheckpoint
}

// LatestCheckpoint returns the most recent pending checkpoint's hash,
// if any.
func (l *Log) LatestCheckpoint() (cryptolite.ChainHash, bool) {
	if len(l.pending) == 0 {
		return cryptolite.ChainHash{}, false
	}
	return l.pending[len(l.pending)-1].hash, true
}

// FromBoot reports whether the retained window starts at power-up.
func (l *Log) FromBoot() bool { return l.fromBoot }

// Start returns the covered start checkpoint, or nil if from boot.
func (l *Log) Start() *CoveredCheckpoint { return l.start }

// EntryCount returns the number of retained entries.
func (l *Log) EntryCount() int { return len(l.offsets) }

// PendingCheckpoints returns the number of uncovered checkpoints.
func (l *Log) PendingCheckpoints() int { return len(l.pending) }

// Truncations returns how many times the log has been truncated.
func (l *Log) Truncations() int { return l.truncations }

// AccountingError cross-checks the incrementally maintained byte
// accounting against a full recount: it re-parses the window's entry
// headers (kind ‖ len) from the first byte and requires every entry to
// start where offsets says, the last one to end where the window does,
// and entryBytes to equal that end. A nil return means log growth
// matches the sum of entry sizes; a non-nil error describes the
// mismatch. The fault-injection invariant checker calls this every
// tick — Append and MarkCovered mutate entryBytes, the window, and its
// offsets incrementally, and this is the conservation check that keeps
// them honest.
func (l *Log) AccountingError() error {
	n, count := 0, 0
	for n < len(l.encoded) {
		if count < len(l.offsets) && l.offsets[count] != n {
			return fmt.Errorf("auditlog: entry %d recorded at offset %d, expected %d", count, l.offsets[count], n)
		}
		if len(l.encoded)-n < 2 {
			return fmt.Errorf("auditlog: entry %d at offset %d has a truncated header (window holds %d bytes)",
				count, n, len(l.encoded))
		}
		n += 2 + int(l.encoded[n+1])
		count++
	}
	if n != len(l.encoded) {
		return fmt.Errorf("auditlog: encoded window holds %d bytes, its %d entries parse to %d",
			len(l.encoded), count, n)
	}
	if n != l.entryBytes {
		return fmt.Errorf("auditlog: entryBytes=%d but %d retained entries parse to %d bytes",
			l.entryBytes, count, n)
	}
	if len(l.offsets) != count {
		return fmt.Errorf("auditlog: %d offsets for %d entries", len(l.offsets), count)
	}
	return nil
}

// StorageBytes returns the current storage footprint: retained
// entries, the covered start checkpoint with its tokens, and all
// pending checkpoints. This is the quantity Figs. 6–7 plot as
// "storage".
func (l *Log) StorageBytes() int {
	n := l.entryBytes
	if l.start != nil {
		n += l.start.CP.EncodedSize() + len(l.start.Tokens)*wire.TokenSize
	}
	for i := range l.pending {
		n += l.pending[i].cp.EncodedSize()
	}
	return n
}
