// Package perf is the wall-clock sibling of the tick-domain tracer
// (internal/obs): phase-attributed wall-clock timing for the tick
// pipeline, runtime telemetry, and sweep-level latency percentiles.
//
// The split matters. Everything in internal/obs lives in the tick
// domain — deterministic, byte-identical across runs, part of the
// differential-test contract. Wall-clock time is inherently
// nondeterministic, so it lives here, behind one seam: every
// wall-clock read in the module flows through this package's injected
// Clock (the //rebound:wallclock hatches below are the module's only
// ones outside analyzer fixtures). The plane is observation-only —
// attaching a PhaseTimer changes no simulation output, pinned by the
// perf differential tests — and the trusted packages (the TCB) never
// import it: trusted's import surface is a frozen stdlib allowlist,
// and timing trusted-node internals would mean instrumenting the very
// code whose integrity the protocol assumes.
//
// A nil *PhaseTimer is valid and means "perf disabled": Start/End on
// nil are allocation-free no-ops, so instrumented call sites never
// guard. The enabled path is allocation-free too (atomic tallies into
// fixed log2 buckets — both pinned at zero by TestPhaseTimerAllocFree),
// which is what keeps whole-sim instrumentation overhead within the ≤3%
// bench-gate ceiling.
package perf

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"roborebound/internal/obs"
)

// Clock reads monotonic nanoseconds on some fixed timebase. The
// production clock is Now; tests inject deterministic fakes, which is
// how timer math is tested exactly despite measuring wall time.
type Clock func() int64

// perfBase anchors the package clock at process start. time.Since on
// it reads Go's monotonic clock, so Now never goes backwards.
var perfBase = time.Now() //rebound:wallclock the perf plane's single wall-clock timebase; every other package injects perf.Now (or a test fake) instead of reading time itself

// Now returns monotonic nanoseconds since process start — the
// module's one production wall-clock read. loadmodel's latency
// measurement, runner's per-cell elapsed, and the CLI's sweep
// progress all route through here (or an injected Clock).
func Now() int64 {
	return int64(time.Since(perfBase)) //rebound:wallclock the perf plane's single wall-clock read; see perfBase
}

// Phase identifies one stage of the tick pipeline. The first block
// holds the engine-level stages — non-overlapping spans whose sum is
// the whole timed pipeline — and the second block holds nested
// attributions (timed inside a top-level span; informative, never
// added to the pipeline total).
type Phase uint8

const (
	// Top-level stages of sim.Engine.StepOnce, in pipeline order.
	PhaseRadioDeliver Phase = iota // Medium.Deliver + per-actor frame fan-out
	PhaseActorTick                 // per-robot protocol tick, in ID order
	PhasePhysics                   // World.Step: integration + crash detection
	PhaseObservers                 // per-tick observer callbacks (checker, samplers)

	// Nested attributions inside the stages above.
	PhaseSpatialBuild   // uniform-grid rebuilds (radio Deliver + world crash detection)
	PhaseAuditServe     // core: one audit request served on the uncached path (or refused pre-verdict)
	PhaseAuditCacheHit  // core: cached serve — verdict reused, replay skipped
	PhaseAuditCacheMiss // core: cache-missed serve — full replay + store
	PhaseChainAppend    // core: audit-log appends (chain-window maintenance); sampled via EndSampled

	NumPhases // array bound, not a phase
)

var phaseNames = [NumPhases]string{
	"radio-deliver",
	"actor-tick",
	"physics",
	"observers",
	"spatial-build",
	"audit-serve",
	"audit-cache-hit",
	"audit-cache-miss",
	"chain-append",
}

// String returns the phase's report name.
func (p Phase) String() string {
	if p >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// Nested reports whether the phase is timed inside a top-level
// pipeline stage (and so is excluded from PipelineTotalNs).
func (p Phase) Nested() bool { return p > PhaseObservers && p < NumPhases }

// timerBuckets is the number of log2 duration buckets: bucket 0 holds
// 0 ns, bucket i holds [2^(i-1), 2^i) ns, and the last bucket
// overflows at ~2^38 ns (≈4.6 min) — far beyond any single phase span.
const timerBuckets = 40

// LogNsBounds returns the ascending power-of-two nanosecond upper
// bounds matching the PhaseTimer's internal buckets. The
// obs.Histogram-based consumers (loadmodel's latency distributions,
// the SweepMeter) use the same bounds so every latency quantile in
// the module shares one resolution.
func LogNsBounds() []float64 {
	b := make([]float64, timerBuckets-1)
	for i := range b {
		b[i] = float64(uint64(1) << uint(i))
	}
	return b
}

// phaseStat is one phase's tallies. Atomics, because one timer may be
// shared by the concurrently running cells of a matrix — each cell's
// engine records from its own worker goroutine, without locks.
type phaseStat struct {
	count   atomic.Uint64
	totalNs atomic.Uint64
	bucket  [timerBuckets]atomic.Uint64
}

// PhaseTimer accumulates wall-clock spans per pipeline phase. One
// timer instruments one simulation; attach it via SimConfig.Perf (or
// directly with the SetPerf hooks on sim.Engine, sim.World,
// radio.Medium, and core.Engine). Nil means disabled.
type PhaseTimer struct {
	clock Clock
	// spans, when non-nil, additionally records every (phase, start,
	// duration) span for the merged Perfetto export. Opt-in: recording
	// takes a mutex and eventually allocates, so the overhead-gated
	// steady state runs with no recorder attached.
	spans *SpanRecorder
	stat  [NumPhases]phaseStat
}

// NewPhaseTimer returns a timer reading the given clock (nil = the
// package clock, Now).
func NewPhaseTimer(clock Clock) *PhaseTimer {
	if clock == nil {
		clock = Now
	}
	return &PhaseTimer{clock: clock}
}

// RecordSpans attaches a span recorder for trace export (nil
// detaches). Attach before the run; not safe to swap mid-tick.
func (t *PhaseTimer) RecordSpans(r *SpanRecorder) {
	if t != nil {
		t.spans = r
	}
}

// Start begins a span: it returns the clock reading End expects. On a
// nil (disabled) timer it returns 0 without touching the clock.
func (t *PhaseTimer) Start() int64 {
	if t == nil {
		return 0
	}
	return t.clock()
}

// End closes a span opened by Start and attributes it to phase p.
// No-op on a nil timer; negative spans (a clock fake running
// backwards) clamp to 0.
func (t *PhaseTimer) End(p Phase, start int64) {
	if t == nil {
		return
	}
	d := t.clock() - start
	if d < 0 {
		d = 0
	}
	s := &t.stat[p]
	s.count.Add(1)
	s.totalNs.Add(uint64(d))
	s.bucket[bucketIndex(d)].Add(1)
	if rec := t.spans; rec != nil {
		rec.record(p, start, d)
	}
}

// EndSampled closes a span opened by Start and attributes it to phase
// p as `weight` spans of the measured duration — the sampled-profiler
// contract for ultra-hot call sites (core's per-entry chain appends):
// time every weight-th operation, scale it up, and pay the two clock
// reads at 1/weight the rate. Counts and totals stay estimates of the
// full population; percentiles come from the timed sample. No-op on a
// nil timer; weight 0 records nothing.
func (t *PhaseTimer) EndSampled(p Phase, start int64, weight uint64) {
	if t == nil || weight == 0 {
		return
	}
	d := t.clock() - start
	if d < 0 {
		d = 0
	}
	s := &t.stat[p]
	s.count.Add(weight)
	s.totalNs.Add(uint64(d) * weight)
	s.bucket[bucketIndex(d)].Add(weight)
	if rec := t.spans; rec != nil {
		rec.record(p, start, d) // the one measured span, not the scaled estimate
	}
}

// bucketIndex maps a non-negative duration to its log2 bucket.
func bucketIndex(ns int64) int {
	b := bits.Len64(uint64(ns))
	if b >= timerBuckets {
		b = timerBuckets - 1
	}
	return b
}

// PhaseReport is one phase's aggregated timings.
type PhaseReport struct {
	Phase   Phase
	Name    string
	Nested  bool
	Count   uint64
	TotalNs uint64
	MeanNs  float64
	P50Ns   float64
	P95Ns   float64
	P99Ns   float64
}

// Report returns the per-phase aggregates in pipeline order, omitting
// phases with no observations. Quantiles are log2-bucket estimates
// (see obs.BucketQuantile); no samples are retained.
func (t *PhaseTimer) Report() []PhaseReport {
	if t == nil {
		return nil
	}
	bounds := LogNsBounds()
	counts := make([]uint64, timerBuckets)
	var out []PhaseReport
	for p := Phase(0); p < NumPhases; p++ {
		s := &t.stat[p]
		n := s.count.Load()
		if n == 0 {
			continue
		}
		for i := range counts {
			counts[i] = s.bucket[i].Load()
		}
		total := s.totalNs.Load()
		out = append(out, PhaseReport{
			Phase:   p,
			Name:    p.String(),
			Nested:  p.Nested(),
			Count:   n,
			TotalNs: total,
			MeanNs:  float64(total) / float64(n),
			P50Ns:   obs.BucketQuantile(bounds, counts, 0.50),
			P95Ns:   obs.BucketQuantile(bounds, counts, 0.95),
			P99Ns:   obs.BucketQuantile(bounds, counts, 0.99),
		})
	}
	return out
}

// PipelineTotalNs sums the top-level (non-nested, non-overlapping)
// pipeline phases — the denominator for "% of pipeline" breakdowns.
func (t *PhaseTimer) PipelineTotalNs() uint64 {
	if t == nil {
		return 0
	}
	var total uint64
	for p := PhaseRadioDeliver; p <= PhaseObservers; p++ {
		total += t.stat[p].totalNs.Load()
	}
	return total
}

// Span is one recorded (phase, start, duration) wall-clock span.
type Span struct {
	Phase   Phase
	StartNs int64
	DurNs   int64
}

// SpanRecorder collects individual spans for the merged Perfetto
// export, bounded so a long run cannot grow it without limit (spans
// past the cap are counted, not stored). It is mutex-guarded because
// the timer it hangs off may be shared by concurrently running cells.
type SpanRecorder struct {
	mu      sync.Mutex
	limit   int
	spans   []Span
	dropped uint64
}

// DefaultSpanLimit bounds a recorder constructed with limit <= 0.
const DefaultSpanLimit = 1 << 16

// NewSpanRecorder returns a recorder holding at most limit spans
// (<= 0 selects DefaultSpanLimit).
func NewSpanRecorder(limit int) *SpanRecorder {
	if limit <= 0 {
		limit = DefaultSpanLimit
	}
	return &SpanRecorder{limit: limit}
}

func (r *SpanRecorder) record(p Phase, start, dur int64) {
	r.mu.Lock()
	if len(r.spans) < r.limit {
		r.spans = append(r.spans, Span{Phase: p, StartNs: start, DurNs: dur})
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// Spans returns a copy of the recorded spans in record order.
func (r *SpanRecorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return out
}

// Dropped returns how many spans the cap discarded.
func (r *SpanRecorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}
