package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Log entries. The c-node logs every nondeterministic input and output
// (§3.4): sensor readings, received and sent wireless messages, and
// actuator commands. The *same* byte encoding is what the trusted
// nodes append to their hash chains (Algorithms 3–4 append
// "label ‖ len ‖ payload"), so an auditor can recompute both chains
// directly from the log it receives.
//
// Encoded entry layout: kind (1 B) ‖ len (1 B) ‖ payload (len B).
// The one-byte length caps logged payloads at 255 B; the a-node
// refuses to forward larger non-audit messages (audit traffic, which
// can reach ~2 kB, is never logged). Sizes line up with §5.2: sensor
// entries are 34 B and actuator entries 26 B.
const (
	EntrySensor   uint8 = 0x10 // "input" in Algorithm 3
	EntryRecv     uint8 = 0x11
	EntrySend     uint8 = 0x12
	EntryActuator uint8 = 0x13 // "acmd" in Algorithm 4
	// EntryMark records that a checkpoint was taken here (payload
	// empty). Taking a checkpoint flushes both trusted-node chains
	// (MAKEAUTHENTICATOR), which resets the batch phase; since the
	// batched chain top depends on where flushes fall, an auditor can
	// only reproduce the attested tops if the log tells it where every
	// flush happened — including checkpoints of rounds that were later
	// abandoned. Without the marker, one uncovered audit round makes
	// every subsequent replay of that robot fail forever.
	EntryMark uint8 = 0x14
)

// MaxLoggedPayload is the largest payload a log entry can carry.
const MaxLoggedPayload = 255

// LogEntry is one record of the c-node's log / one trusted-node hash
// chain entry.
type LogEntry struct {
	Kind    uint8
	Payload []byte
}

// EncodedSize returns the size of the encoded entry.
func (e *LogEntry) EncodedSize() int { return 2 + len(e.Payload) }

// Encode serializes the entry. Panics if the payload exceeds
// MaxLoggedPayload — the a-node guards that invariant before any entry
// is constructed.
func (e *LogEntry) Encode() []byte {
	if len(e.Payload) > MaxLoggedPayload {
		panic("wire: log entry payload exceeds 255 bytes")
	}
	w := NewWriter(e.EncodedSize())
	w.U8(e.Kind)
	w.U8(uint8(len(e.Payload)))
	w.Raw(e.Payload)
	return w.Bytes()
}

func validEntryKind(k uint8) bool {
	return k == EntrySensor || k == EntryRecv || k == EntrySend || k == EntryActuator || k == EntryMark
}

// DecodeLogEntries parses a concatenation of encoded entries, as
// carried in an audit request's segment.
func DecodeLogEntries(b []byte) ([]LogEntry, error) {
	return AppendDecodeLogEntries(nil, b)
}

// AppendDecodeLogEntries is DecodeLogEntries appending to dst, so a
// caller that replays segment after segment reuses one entry slice.
// The payloads alias b. On error dst comes back at its original length
// (and, having possibly grown, is still the slice to keep).
func AppendDecodeLogEntries(dst []LogEntry, b []byte) ([]LogEntry, error) {
	base := len(dst)
	r := Reader{buf: b}
	for r.Remaining() > 0 {
		kind := r.U8()
		n := int(r.U8())
		payload := r.Raw(n)
		if err := r.Err(); err != nil {
			return dst[:base], fmt.Errorf("log entry %d: %w", len(dst)-base, err)
		}
		if !validEntryKind(kind) {
			return dst[:base], fmt.Errorf("log entry %d: unknown kind 0x%02x", len(dst)-base, kind)
		}
		dst = append(dst, LogEntry{Kind: kind, Payload: payload})
	}
	return dst, nil
}

// EncodeLogEntries concatenates the encodings of entries.
func EncodeLogEntries(entries []LogEntry) []byte {
	n := 0
	for i := range entries {
		n += entries[i].EncodedSize()
	}
	out := make([]byte, 0, n)
	for i := range entries {
		out = AppendLogEntry(out, &entries[i])
	}
	return out
}

// AppendLogEntry appends e's encoding to dst and returns the extended
// slice (append-style, so callers accumulating many entries — the
// audit log keeps its segment pre-encoded — pay no intermediate
// allocation). Panics on oversized payloads exactly like Encode.
func AppendLogEntry(dst []byte, e *LogEntry) []byte {
	if len(e.Payload) > MaxLoggedPayload {
		panic("wire: log entry payload exceeds 255 bytes")
	}
	dst = append(dst, e.Kind, uint8(len(e.Payload)))
	return append(dst, e.Payload...)
}

// SensorReading is the payload of an EntrySensor entry: the robot's
// own pose as sampled by the s-node. Position is float64 (replay needs
// the exact values the controller saw); velocity is float32. With the
// 2-byte entry header the encoded entry is 34 bytes, matching §5.2.
type SensorReading struct {
	Time       Tick
	PosX, PosY float64
	VelX, VelY float32
}

// SensorReadingSize is the payload size of a sensor reading.
const SensorReadingSize = 8 + 16 + 8

// Encode serializes the reading (payload only).
func (s *SensorReading) Encode() []byte {
	return s.AppendEncode(make([]byte, 0, SensorReadingSize))
}

// AppendEncode appends the reading's encoding to dst and returns the
// extended slice.
func (s *SensorReading) AppendEncode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(s.Time))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(s.PosX))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(s.PosY))
	dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(s.VelX))
	return binary.BigEndian.AppendUint32(dst, math.Float32bits(s.VelY))
}

// DecodeSensorReading parses a sensor reading payload.
func DecodeSensorReading(b []byte) (SensorReading, error) {
	r := NewReader(b)
	var s SensorReading
	s.Time = Tick(r.U64())
	s.PosX = r.F64()
	s.PosY = r.F64()
	s.VelX = r.F32()
	s.VelY = r.F32()
	if err := r.Done(); err != nil {
		return SensorReading{}, fmt.Errorf("sensor reading: %w", err)
	}
	return s, nil
}

// ActuatorCmd is the payload of an EntryActuator entry: the commanded
// acceleration vector. Encoded entry size is 26 bytes, matching §5.2.
type ActuatorCmd struct {
	Time       Tick
	AccX, AccY float64
}

// ActuatorCmdSize is the payload size of an actuator command.
const ActuatorCmdSize = 8 + 16

// Encode serializes the command (payload only).
func (a *ActuatorCmd) Encode() []byte {
	return a.AppendEncode(make([]byte, 0, ActuatorCmdSize))
}

// AppendEncode appends the command's encoding to dst and returns the
// extended slice.
func (a *ActuatorCmd) AppendEncode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(a.Time))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(a.AccX))
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(a.AccY))
}

// DecodeActuatorCmd parses an actuator command payload.
func DecodeActuatorCmd(b []byte) (ActuatorCmd, error) {
	r := NewReader(b)
	var a ActuatorCmd
	a.Time = Tick(r.U64())
	a.AccX = r.F64()
	a.AccY = r.F64()
	if err := r.Done(); err != nil {
		return ActuatorCmd{}, fmt.Errorf("actuator cmd: %w", err)
	}
	return a, nil
}
