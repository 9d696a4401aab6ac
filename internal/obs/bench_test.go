package obs

import (
	"testing"

	"roborebound/internal/wire"
)

// The tracer-overhead micro-benches (`make bench-all`).
// BenchmarkEmitDisabled is the number that matters most: it is the
// cost every frame/round pays on a production (untraced) run.

func benchEvent(i int) Event {
	return Event{
		Tick:  wire.Tick(i),
		Robot: wire.RobotID(i % 16),
		Kind:  EvFrameRx,
		Peer:  wire.RobotID((i + 1) % 16),
		Value: 96,
	}
}

// benchEmit offers b.N events to tr the way every emit site does:
// guarded on a nil tracer.
func benchEmit(b *testing.B, tr Tracer) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr != nil {
			tr.Emit(benchEvent(i))
		}
	}
}

func BenchmarkEmitDisabled(b *testing.B) { benchEmit(b, nil) }

func BenchmarkEmitCollector(b *testing.B) { benchEmit(b, NewCollector()) }

func BenchmarkEmitFlightRecorder(b *testing.B) {
	benchEmit(b, NewFlightRecorder(benchEvent(0).Robot))
}

func BenchmarkRegistrySnapshot(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 64; i++ {
		r.Register("core.robot.", uint64(i), &testSource{tally: uint64(i)})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Snapshot()
	}
}
