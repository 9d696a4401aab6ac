package auditlog

import (
	"errors"

	"roborebound/internal/wire"
)

// Snapshot codec. The log's dynamic state is the retained entry
// window, the covered start (or from-boot flag), the pending
// checkpoints (each with the number of entries before it), and the
// truncation tally. The window's entry count and byte tally and each
// checkpoint's byte position, retained encoding and hash are derived
// state and are rebuilt on restore rather than serialized — the window
// is parsed and re-appended entry by entry, so the same Append path
// regenerates them and the restore stays honest against
// AccountingError.

// EncodeState serializes the log as an opaque blob.
func (l *Log) EncodeState() []byte {
	w := wire.NewWriter(64 + len(l.encoded))
	w.Bool(l.start == nil)
	w.Bool(l.start != nil)
	if l.start != nil {
		w.Blob(l.startEnc)
		w.U32(uint32(len(l.start.Tokens)))
		for i := range l.start.Tokens {
			w.Raw(l.start.Tokens[i].Encode())
		}
	}
	w.Blob(l.encoded)
	w.U32(uint32(len(l.pending)))
	for i := range l.pending {
		w.Blob(l.pending[i].enc)
		w.U32(uint32(l.pending[i].index))
	}
	w.U32(uint32(l.truncations))
	return w.Bytes()
}

// RestoreState replaces the log's contents with a blob from
// EncodeState. Malformed bytes error and leave the log unspecified
// (callers discard the whole run on restore failure).
func (l *Log) RestoreState(b []byte) error {
	r := wire.NewReader(b)
	fromBoot := r.Bool()
	if r.Bool() == fromBoot {
		r.Fail(errors.New("auditlog: snapshot fromBoot/start flags inconsistent"))
	}
	var start *CoveredCheckpoint
	if !fromBoot {
		cp, err := DecodeCheckpoint(r.Blob())
		r.Fail(err)
		start = &CoveredCheckpoint{CP: cp, Tokens: make([]wire.Token, r.Count(wire.TokenSize))}
		for i := range start.Tokens {
			tok, err := wire.DecodeToken(r.Raw(wire.TokenSize))
			r.Fail(err)
			start.Tokens[i] = tok
		}
	}
	entries, err := wire.DecodeLogEntries(r.Blob())
	r.Fail(err)
	// Each pending record is at least 8 bytes (two length/count words).
	pending := make([]pendingCheckpoint, r.Count(8))
	prevIndex := 0
	for i := range pending {
		cp, err := DecodeCheckpoint(r.Blob())
		r.Fail(err)
		index := int(r.U32())
		if index < prevIndex || index > len(entries) {
			r.Fail(errors.New("auditlog: snapshot pending checkpoint index out of range"))
		}
		prevIndex = index
		pending[i] = newPending(cp, cp.Encode(), index, 0) // pos is set by the rebuild below
	}
	truncations := int(r.U32())
	if err := r.Done(); err != nil {
		return err
	}
	// Rebuild through Append so the window, its entry count and the byte
	// accounting are regenerated by the same code the live path uses;
	// each checkpoint takes the window's length once its entries are in.
	l.start = start
	l.startEnc = nil
	if start != nil {
		l.startEnc = start.CP.Encode()
	}
	l.pending = pending
	l.encoded = nil
	l.entries = 0
	l.entryBytes = 0
	l.truncations = truncations
	next := 0
	for i := 0; i <= len(entries); i++ {
		for ; next < len(pending) && pending[next].index == i; next++ {
			pending[next].pos = len(l.encoded)
		}
		if i < len(entries) {
			l.Append(entries[i])
		}
	}
	return l.AccountingError()
}
