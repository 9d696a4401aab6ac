package auditlog

import (
	"encoding/binary"
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
// cp.State is the tail of enc, not the caller's bytes.
type pendingCheckpoint struct {
	cp    Checkpoint
	enc   []byte
	hash  cryptolite.ChainHash
	index int // number of log entries recorded before this checkpoint
	// pos is the byte length of those entries' encoding: the window's
	// prefix a segment to this checkpoint ships. Derived from index on
	// restore, so the snapshot does not carry it.
	pos int
}

// newPending files cp with enc, its encoding: cp.State becomes the
// encoding's tail.
func newPending(cp Checkpoint, enc []byte, index, pos int) pendingCheckpoint {
	cp.State = enc[checkpointHeadSize:]
	return pendingCheckpoint{cp: cp, enc: enc, hash: cryptolite.SHA1Sum(enc), index: index, pos: pos}
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
//
// The zero Log is an empty log starting at boot, so a holder can keep
// one by value.
type Log struct {
	start    *CoveredCheckpoint // nil ⇔ the window starts at boot
	startEnc []byte             // start.CP's encoding, nil ⇔ from boot
	pending  []pendingCheckpoint

	// spare is the covered start MarkCovered last superseded: the
	// storage AddCheckpoint encodes the next checkpoint into, so a log
	// whose rounds are covered encodes its checkpoints where the ones
	// before them were. Nothing reads its bytes once it is the spare
	// (see AddCheckpoint).
	spare []byte //rebound:snapshot-skip storage for the next checkpoint's encoding, no retained state
	// head holds a checkpoint's fixed fields when there is no spare to
	// encode into: the state appender then allocates the encoding once,
	// at its whole size, rather than growing one the header started.
	head [checkpointHeadSize]byte //rebound:snapshot-skip write-only scratch, no retained state

	// encoded is the concatenation of the retained entries' encodings
	// and entries their number. Each pending checkpoint records where it
	// falls in both, so any checkpoint-aligned prefix is a slice, not an
	// encode, and the window keeps no per-entry bookkeeping.
	encoded []byte
	entries int

	entryBytes int
	// truncations counts MarkCovered-driven discards, for tests.
	truncations int
}

// New returns an empty log starting at boot.
func New() *Log { return new(Log) }

// Append records one input/output entry. The payload is copied into
// the window, so the caller's bytes may be borrowed scratch.
func (l *Log) Append(e wire.LogEntry) {
	l.entries++
	l.encoded = wire.AppendLogEntry(l.encoded, &e)
	l.entryBytes += e.EncodedSize()
}

// StateAppender appends a checkpoint's controller state to dst and
// returns the extended slice; control.Controller is one.
type StateAppender interface {
	AppendState(dst []byte) []byte
}

// AddCheckpoint records a checkpoint at the current log position —
// taken at t, with the trusted nodes' authenticators authS and authA
// and the state state appends — and returns its hash, the handle
// SegmentTo and MarkCovered take. The caller (the protocol engine)
// creates one per audit round, right before requesting audits.
//
// The state is appended straight into the checkpoint's encoding, and
// its length written in front of it afterwards. The encoding starts in
// the spare when there is one and in head otherwise; when the state
// does not fit, the appender moves it once to storage that does (every
// controller grows its buffer with one slices.Grow, so to the
// allocator's size class). A covered checkpoint's encoding becomes the
// spare of the round after next.
//
// Overwriting the spare is safe because nothing reads it any more: it
// was the covered start until the last MarkCovered, and the only
// holder of those bytes is the engine's round that MarkCovered covered
// (its start checkpoint), which a covered round never sends again and
// the next round, started by the caller right after this returns,
// replaces.
func (l *Log) AddCheckpoint(t wire.Tick, authS, authA wire.Authenticator, state StateAppender) cryptolite.ChainHash {
	cp := Checkpoint{Time: t, AuthS: authS, AuthA: authA}
	enc := l.spare[:0]
	if enc == nil {
		enc = l.head[:0]
	}
	l.spare = nil
	enc = cp.AppendEncode(enc)
	enc = state.AppendState(enc)
	if &enc[0] == &l.head[0] {
		enc = append([]byte(nil), enc...) // no state: the header is the whole checkpoint
	}
	binary.BigEndian.PutUint32(enc[checkpointHeadSize-4:], uint32(len(enc)-checkpointHeadSize))
	p := newPending(cp, enc, l.entries, len(l.encoded))
	l.pending = append(l.pending, p)
	return p.hash
}

// ErrUnknownCheckpoint is returned when a hash matches no retained
// checkpoint.
var ErrUnknownCheckpoint = errors.New("auditlog: unknown checkpoint")

// MarkCovered installs the tokens covering the checkpoint with the
// given hash and truncates: entries before that checkpoint and all
// earlier checkpoints are discarded; tokens is copied. This is what
// keeps c-node storage constant (§3.6, §5.2). The window is compacted in place — a log in
// steady state reuses the same storage round after round — so segments
// handed out earlier are invalidated (see SegmentTo).
func (l *Log) MarkCovered(hash cryptolite.ChainHash, tokens []wire.Token) error {
	for i, p := range l.pending {
		if p.hash != hash {
			continue
		}
		l.encoded = l.encoded[:copy(l.encoded, l.encoded[p.pos:])]
		l.entries -= p.index
		l.entryBytes = len(l.encoded)
		tail := l.pending[i+1:]
		for j := range tail {
			tail[j].index -= p.index
			tail[j].pos -= p.pos
		}
		// Clear the vacated records: they hold checkpoint state blobs.
		n := copy(l.pending, tail)
		clear(l.pending[n:])
		l.pending = l.pending[:n]
		// The log's one covered start is rewritten in place; a caller
		// that keeps its tokens past the next MarkCovered copies them.
		if l.start == nil {
			l.start = new(CoveredCheckpoint)
		}
		l.start.CP = p.cp
		l.start.Tokens = append(l.start.Tokens[:0], tokens...)
		// The superseded start's encoding is where the next checkpoint
		// is encoded (see AddCheckpoint).
		l.spare, l.startEnc = l.startEnc, p.enc
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
// the given hash. The returned encoding and Start alias the log's
// storage and are valid until the next MarkCovered; the caller copies
// what it keeps.
func (l *Log) SegmentTo(hash cryptolite.ChainHash) (Segment, error) {
	for _, p := range l.pending {
		if p.hash != hash {
			continue
		}
		return Segment{
			FromBoot: l.start == nil,
			Start:    l.start,
			End:      p.cp,
			EndHash:  p.hash,
			StartEnc: l.startEnc,
			EndEnc:   p.enc,
			Encoded:  l.encoded[:p.pos],
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
func (l *Log) FromBoot() bool { return l.start == nil }

// Start returns the covered start checkpoint, or nil if from boot.
func (l *Log) Start() *CoveredCheckpoint { return l.start }

// EntryCount returns the number of retained entries.
func (l *Log) EntryCount() int { return l.entries }

// PendingCheckpoints returns the number of uncovered checkpoints.
func (l *Log) PendingCheckpoints() int { return len(l.pending) }

// Truncations returns how many times the log has been truncated.
func (l *Log) Truncations() int { return l.truncations }

// AccountingError cross-checks the incrementally maintained
// accounting against a full recount: it re-parses the window's entry
// headers (kind ‖ len) from the first byte and requires every kind to
// be a known log entry kind, the parse to end exactly where the window
// does, entryBytes to equal that end, the parsed count to equal the
// entry count, and every pending checkpoint's (index, position) to
// fall on an entry boundary of the parse. A nil return means log
// growth matches the sum of entry sizes; a non-nil error describes the
// mismatch. The fault-injection invariant checker calls this every
// tick — Append and MarkCovered mutate entryBytes, the window, the
// count and the checkpoints' positions incrementally, and this is the
// conservation check that keeps them honest.
func (l *Log) AccountingError() error {
	n, count, next := 0, 0, 0
	for {
		// The pending checkpoints are in log order: check those recorded
		// at this entry boundary.
		for ; next < len(l.pending) && l.pending[next].index == count; next++ {
			if p := l.pending[next].pos; p != n {
				return fmt.Errorf("auditlog: checkpoint %d after %d entries recorded at offset %d, expected %d",
					next, count, p, n)
			}
		}
		if n >= len(l.encoded) {
			break
		}
		if len(l.encoded)-n < 2 {
			return fmt.Errorf("auditlog: entry %d at offset %d has a truncated header (window holds %d bytes)",
				count, n, len(l.encoded))
		}
		if !wire.ValidEntryKind(l.encoded[n]) {
			return fmt.Errorf("auditlog: entry %d at offset %d has unknown kind 0x%02x", count, n, l.encoded[n])
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
	if l.entries != count {
		return fmt.Errorf("auditlog: entry count %d for %d parsed entries", l.entries, count)
	}
	if next != len(l.pending) {
		return fmt.Errorf("auditlog: checkpoint %d recorded after %d entries, not on the parse of %d",
			next, l.pending[next].index, count)
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
