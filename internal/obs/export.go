package obs

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"roborebound/internal/wire"
)

// micros converts tick t into the microsecond timestamp Chrome trace
// viewers expect: t * 1e6 / wire.TicksPerSecond, pure arithmetic with
// no wall clock, and always finite.
func micros(t wire.Tick) float64 {
	return float64(t) * 1e6 / wire.TicksPerSecond
}

// appendJSONString appends s to dst as a JSON string literal. Its
// output equals strconv.Quote's wherever that output is valid JSON, so
// the plain-ASCII names and details every exporter emits render byte
// for byte as they always have. Where Quote's escapes are not JSON it
// departs: a control byte Quote writes as \a, \v or \xXX (DEL
// included) becomes \u00XX, each run of invalid UTF-8 becomes one
// U+FFFD escape (the rune strings.ToValidUTF8 would put there), and a
// rune Quote writes as \UXXXXXXXX is copied as raw UTF-8. Nothing
// upstream keeps the input ASCII: a Detail is fmt output of arbitrary
// arguments or a blob restored from a snapshot.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0 // s[start:i] is still to be copied as it stands
	for i := 0; i < len(s); {
		c := s[i]
		if c >= 0x20 && c < 0x7f && c != '"' && c != '\\' {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, "\\b"...)
			case '\f':
				dst = append(dst, "\\f"...)
			case '\n':
				dst = append(dst, "\\n"...)
			case '\r':
				dst = append(dst, "\\r"...)
			case '\t':
				dst = append(dst, "\\t"...)
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case size == 1: // invalid UTF-8: one U+FFFD for the whole run
			dst = append(dst, s[start:i]...)
			dst = append(dst, "\\ufffd"...)
			for i++; i < len(s) && s[i] >= utf8.RuneSelf; i++ {
				if _, size := utf8.DecodeRuneInString(s[i:]); size != 1 {
					break
				}
			}
			start = i
			continue
		case r < 0x10000 && !strconv.IsPrint(r):
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', hex[r>>12], hex[r>>8&0xf], hex[r>>4&0xf], hex[r&0xf])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// JSONFloat renders v in the shortest round-trippable form, with a
// fixed representation for integral values so output is stable. The
// perf plane's exports use it too, so both planes print a number alike.
func JSONFloat(v float64) string {
	var buf [32]byte
	return string(appendJSONFloat(buf[:0], v))
}

func appendJSONFloat(dst []byte, v float64) []byte {
	if v == float64(int64(v)) {
		return strconv.AppendInt(dst, int64(v), 10)
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// WriteNDJSON writes one JSON object per event, newline-delimited, in
// slice order. Fields are emitted in a fixed order and zero-valued
// optional fields are omitted, so the byte stream is a pure function
// of the event sequence.
func WriteNDJSON(w io.Writer, events []Event) error {
	var b []byte
	for _, e := range events {
		b = append(b[:0], `{"tick":`...)
		b = strconv.AppendUint(b, uint64(e.Tick), 10)
		b = append(b, `,"robot":`...)
		b = strconv.AppendUint(b, uint64(e.Robot), 10)
		b = append(b, `,"kind":`...)
		b = appendJSONString(b, e.Kind.String())
		if e.Peer != 0 {
			b = append(b, `,"peer":`...)
			b = strconv.AppendUint(b, uint64(e.Peer), 10)
		}
		if e.Cause != CauseNone {
			b = append(b, `,"cause":`...)
			b = appendJSONString(b, e.Cause.String())
		}
		if e.Value != 0 {
			b = append(b, `,"value":`...)
			b = strconv.AppendInt(b, e.Value, 10)
		}
		if e.Detail != "" {
			b = append(b, `,"detail":`...)
			b = appendJSONString(b, e.Detail)
		}
		b = append(b, "}\n"...)
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// AppendMetricsJSON appends a snapshot's metrics.json rendering to dst:
// one JSON object mapping metric name to value, one metric per line,
// in the snapshot's (sorted) order. dst grows at most once.
func AppendMetricsJSON(dst []byte, snap []Sample) []byte {
	size := len("{\n}\n")
	for _, s := range snap {
		size += len(s.Name) + 32 // indent, quotes, ": ", a typical value, ",\n"
	}
	b := append(slices.Grow(dst, size), "{\n"...)
	for i, s := range snap {
		b = append(b, "  "...)
		b = appendJSONString(b, s.Name)
		b = append(b, ": "...)
		b = appendJSONFloat(b, s.Value)
		if i < len(snap)-1 {
			b = append(b, ',')
		}
		b = append(b, '\n')
	}
	return append(b, "}\n"...)
}

// WriteMetricsJSON writes AppendMetricsJSON's rendering of a snapshot
// to w in a single Write.
func WriteMetricsJSON(w io.Writer, snap []Sample) error {
	_, err := w.Write(AppendMetricsJSON(nil, snap))
	return err
}

// WriteChromeTrace writes the events as a Chrome trace-event JSON
// document loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing.
//
// Layout: each robot is a "process" (named via metadata events);
// within it, thread 1 carries the protocol plane and thread 2 the
// radio plane. Audit rounds become complete ("X") slices from
// EvAuditRoundStart to the matching Complete/Abandoned; every other
// event is an instant ("i"). Timestamps are simulated time at
// wire.TicksPerSecond.
func WriteChromeTrace(w io.Writer, events []Event) error {
	var b strings.Builder
	b.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	for i, line := range ChromeTraceLines(events) {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("\n")
		b.WriteString(line)
	}
	b.WriteString("\n]}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// ChromeTraceLines renders the events as individual Chrome
// trace-event JSON objects, one per string, in deterministic order.
// WriteChromeTrace wraps them in a trace document; the perf plane's
// merged export composes them with its wall-clock track instead.
//
// Robustness: events are normally tick-ordered (the Collector
// preserves emit order and the engine ticks monotonically), but the
// renderer does not trust that — an audit-round completion carrying
// an earlier tick than its start (a hand-built or corrupted event
// slice) would yield a negative slice duration, which trace viewers
// reject; such durations clamp to 0. Timestamps themselves are always
// finite (see micros).
func ChromeTraceLines(events []Event) []string {
	var out []string
	emit := func(s string) { out = append(out, s) }
	jsonString := func(s string) string { return string(appendJSONString(nil, s)) }

	// Process-name metadata, one per robot, in first-seen order (the
	// event slice is already deterministic).
	seen := make(map[uint16]bool)
	for _, e := range events {
		id := uint16(e.Robot)
		if seen[id] {
			continue
		}
		seen[id] = true
		emit(fmt.Sprintf(`{"ph":"M","name":"process_name","pid":%d,"tid":0,"args":{"name":"robot %d"}}`, id, id))
		emit(fmt.Sprintf(`{"ph":"M","name":"thread_name","pid":%d,"tid":1,"args":{"name":"protocol"}}`, id))
		emit(fmt.Sprintf(`{"ph":"M","name":"thread_name","pid":%d,"tid":2,"args":{"name":"radio"}}`, id))
	}

	// Pair round starts with their completion/abandonment per robot.
	openRound := make(map[uint16]Event)
	for _, e := range events {
		id := uint16(e.Robot)
		tid := 1
		if e.Kind.FramePlane() {
			tid = 2
		}
		ts := micros(e.Tick)
		switch e.Kind {
		case EvAuditRoundStart:
			openRound[id] = e
		case EvAuditRoundComplete, EvAuditRoundAbandoned:
			start, ok := openRound[id]
			if !ok {
				emit(fmt.Sprintf(`{"ph":"i","name":%s,"pid":%d,"tid":%d,"ts":%s,"s":"t","args":{"value":%d}}`,
					jsonString(e.Kind.String()), id, tid, JSONFloat(ts), e.Value))
				continue
			}
			delete(openRound, id)
			startTS := micros(start.Tick)
			name := "audit-round"
			if e.Kind == EvAuditRoundAbandoned {
				name = "audit-round (abandoned)"
			}
			dur := ts - startTS
			if dur < 0 {
				dur = 0 // non-monotonic event slice; see ChromeTraceLines
			}
			emit(fmt.Sprintf(`{"ph":"X","name":%s,"pid":%d,"tid":1,"ts":%s,"dur":%s,"args":{"segment_bytes":%d,"tokens":%d}}`,
				jsonString(name), id, JSONFloat(startTS), JSONFloat(dur), start.Value, e.Value))
		default:
			args := fmt.Sprintf(`{"value":%d`, e.Value)
			if e.Peer != 0 {
				args += fmt.Sprintf(`,"peer":%d`, uint16(e.Peer))
			}
			if e.Cause != CauseNone {
				args += `,"cause":` + jsonString(e.Cause.String())
			}
			if e.Detail != "" {
				args += `,"detail":` + jsonString(e.Detail)
			}
			args += "}"
			emit(fmt.Sprintf(`{"ph":"i","name":%s,"pid":%d,"tid":%d,"ts":%s,"s":"t","args":%s}`,
				jsonString(e.Kind.String()), id, tid, JSONFloat(ts), args))
		}
	}

	// Rounds still open at end of trace render as instants so no data
	// is silently dropped.
	for _, e := range events {
		id := uint16(e.Robot)
		if open, ok := openRound[id]; ok && open == e {
			emit(fmt.Sprintf(`{"ph":"i","name":"audit-round (open)","pid":%d,"tid":1,"ts":%s,"s":"t","args":{"segment_bytes":%d}}`,
				id, JSONFloat(micros(open.Tick)), open.Value))
			delete(openRound, id)
		}
	}

	return out
}
