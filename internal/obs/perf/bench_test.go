package perf

import "testing"

// Micro benches for the instrumentation hot path: one Start/End span
// per iteration, on a nil (disabled) timer and an enabled one. The
// alloc-pin tests assert 0 allocs/op; these show the ns cost, so a
// regression in the disabled fast path (two nil checks) or the enabled
// path (clock read + three atomics + bucket index) is visible in
// review.

func BenchmarkPerf_StartEnd_Disabled(b *testing.B) {
	var t *PhaseTimer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.End(PhaseActorTick, t.Start())
	}
}

func BenchmarkPerf_StartEnd_Enabled(b *testing.B) {
	t := NewPhaseTimer(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.End(PhaseActorTick, t.Start())
	}
	if t.Report()[0].Count != uint64(b.N) {
		b.Fatal("spans lost")
	}
}

func BenchmarkPerf_SweepMeter_CellDone(b *testing.B) {
	m := NewSweepMeter(nil)
	m.Begin(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.CellDone(1000)
	}
	m.End()
	if m.Report().Cells != b.N {
		b.Fatal("cells lost")
	}
}
