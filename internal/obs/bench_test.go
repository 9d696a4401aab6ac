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

func BenchmarkEmitDisabled(b *testing.B) {
	var tr Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Emit(tr, benchEvent(i))
	}
}

func BenchmarkEmitCollector(b *testing.B) {
	c := NewCollector()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Emit(c, benchEvent(i))
	}
}

func BenchmarkEmitFlightRecorder(b *testing.B) {
	f := NewFlightRecorder(DefaultFlightRing)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Emit(f, benchEvent(i))
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterAddNil(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkRegistrySnapshot(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 64; i++ {
		r.Counter(benchName(i)).Add(uint64(i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Snapshot()
	}
}

func benchName(i int) string {
	return "core.robot." + string(rune('a'+i%26)) + ".rounds"
}
