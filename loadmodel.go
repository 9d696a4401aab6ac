package roborebound

import (
	"roborebound/internal/cryptolite"
	"roborebound/internal/obs"
	"roborebound/internal/obs/perf"
	"roborebound/internal/wire"
)

// This file reproduces the microbenchmark experiments (§5.1): Fig. 5a
// (hash/MAC latency vs. argument size), Fig. 5b (I/O overhead vs.
// message size), and the worst-case trusted-node load models of
// Tables 1 and 2.
//
// The paper measures on a PIC32MX130F064B (50 MHz, single-issue
// MIPS32). We do not have one, so crypto costs are measured on the
// host and scaled by PICSlowdown, an order-of-magnitude cycle model:
// ~3 GHz × ~4-wide superscalar vs. 50 MHz × 1-wide, with a fudge for
// the PIC's 32-bit datapath and flash wait states. The two anchors the
// paper reports — SHA-1 of a 270 B batch ≈ 1 ms, a MAC over ≤40 B ≈
// 10–12 ms — land within ~2× under this scaling, which is as good as
// cross-ISA extrapolation gets; EXPERIMENTS.md, "Fig. 5a", records the
// residuals.
const PICSlowdown = 2000.0

// LatencyDist summarizes a per-operation latency distribution in host
// nanoseconds. Percentiles come from the perf package's log-bucketed
// streaming histogram, so a million-iteration measurement retains no
// samples — just 40 bucket counters.
type LatencyDist struct {
	MeanNs float64
	P50Ns  float64
	P95Ns  float64
	P99Ns  float64
}

// HostTiming is one measured primitive cost.
type HostTiming struct {
	Bytes  int
	HostNs float64 // mean ns per op (Dist.MeanNs)
	// PICMs is HostNs scaled to estimated PIC milliseconds.
	PICMs float64
	// Dist is the full per-op latency distribution behind HostNs.
	Dist LatencyDist
}

// timeIt measures the mean per-op latency of f. The §5.1
// microbenchmarks measure real host latency by design; the wall-clock
// reads go through the perf package's monotonic clock, the repo's one
// audited wall-clock seam.
func timeIt(iters int, f func()) float64 {
	return timeDist(iters, f).MeanNs
}

// timeDist measures f per-op: each iteration is timed individually and
// streamed into a log2-ns histogram, so the result carries tail
// percentiles as well as the mean. Per-op timing adds one clock read
// per iteration (~20 ns) versus timing the whole loop; at the
// microsecond-scale operations measured here that skews means by well
// under a percent, and it is the only way to see the tail at all.
func timeDist(iters int, f func()) LatencyDist {
	if iters < 1 {
		iters = 1
	}
	// Warm up, then measure.
	f()
	hist := obs.NewHistogram(perf.LogNsBounds())
	var totalNs int64
	for i := 0; i < iters; i++ {
		start := perf.Now()
		f()
		d := perf.Now() - start
		if d < 0 {
			d = 0
		}
		totalNs += d
		hist.Observe(float64(d))
	}
	return LatencyDist{
		MeanNs: float64(totalNs) / float64(iters),
		P50Ns:  hist.Quantile(0.50),
		P95Ns:  hist.Quantile(0.95),
		P99Ns:  hist.Quantile(0.99),
	}
}

// Fig5aSizes are the argument sizes swept in Fig. 5a, bracketing the
// protocol's real inputs: a 27 B state message, a ≤40 B token, a 270 B
// ten-message batch, and a ≤2 kB audit transfer.
var Fig5aSizes = []int{16, 27, 40, 64, 128, 270, 512, 1024, 2048}

// MeasureHashLatency times SHA-1 over each size (Fig. 5a, hash line).
func MeasureHashLatency(iters int) []HostTiming {
	out := make([]HostTiming, 0, len(Fig5aSizes))
	for _, n := range Fig5aSizes {
		buf := make([]byte, n)
		d := timeDist(iters, func() { cryptolite.SHA1(buf) })
		out = append(out, HostTiming{Bytes: n, HostNs: d.MeanNs, PICMs: d.MeanNs * PICSlowdown / 1e6, Dist: d})
	}
	return out
}

// MeasureMACLatency times LightMAC over each size (Fig. 5a, MAC line).
func MeasureMACLatency(iters int) []HostTiming {
	//rebound:tcb-exempt host-side benchmark of the MAC primitive itself with a throwaway key; no protocol key material
	mac := cryptolite.NewLightMACFromSecret([]byte("bench"))
	out := make([]HostTiming, 0, len(Fig5aSizes))
	for _, n := range Fig5aSizes {
		buf := make([]byte, n)
		d := timeDist(iters, func() { mac.MAC(buf) })
		out = append(out, HostTiming{Bytes: n, HostNs: d.MeanNs, PICMs: d.MeanNs * PICSlowdown / 1e6, Dist: d})
	}
	return out
}

// Fig5bSizes are the I/O transfer sizes of Fig. 5b.
var Fig5bSizes = []int{32, 64, 128, 256, 512, 1024, 2048}

// MeasureIOLatency times the trusted-node I/O path substitute: framing
// plus copy-in/copy-out of a message (the paper measures SPI
// register-copy overhead on the PIC; the shape — flat until ~hundreds
// of bytes, then linear — is a property of per-byte copying either
// way).
func MeasureIOLatency(iters int) (send, recv []HostTiming) {
	for _, n := range Fig5bSizes {
		payload := make([]byte, n)
		f := wire.Frame{Src: 1, Dst: 2, Payload: payload}
		d := timeDist(iters, func() { _ = f.Encode() })
		send = append(send, HostTiming{Bytes: n, HostNs: d.MeanNs, PICMs: d.MeanNs * PICSlowdown / 1e6, Dist: d})
		enc := f.Encode()
		sink := make([]byte, 0, n+16)
		d = timeDist(iters, func() {
			dec, _ := wire.DecodeFrame(enc)
			sink = append(sink[:0], dec.Payload...) // copy-out, as the SPI path would
		})
		recv = append(recv, HostTiming{Bytes: n, HostNs: d.MeanNs, PICMs: d.MeanNs * PICSlowdown / 1e6, Dist: d})
	}
	return send, recv
}

// CostModel holds the per-operation costs (PIC-scale milliseconds)
// that Tables 1 and 2 multiply by rates. I/O costs use the paper's
// measured values directly (they are bus-bound, not CPU-bound, and
// cannot be extrapolated from a host CPU).
type CostModel struct {
	MACMs     float64 // one LightMAC over ≤40 B
	HashMs    float64 // one SHA-1 flush of a ~270 B batch
	IOSmallMs float64 // transfer of a ≤40 B message
	IOLargeMs float64 // transfer of a ~2 kB message
}

// PaperCostModel returns the costs as measured in §5.1.
func PaperCostModel() CostModel {
	return CostModel{MACMs: 10.0, HashMs: 1.0, IOSmallMs: 1.0, IOLargeMs: 20.0}
}

// MeasuredCostModel derives crypto costs from host measurements
// (scaled) and keeps the paper's I/O costs.
func MeasuredCostModel() CostModel {
	//rebound:tcb-exempt host-side benchmark of the MAC primitive itself with a throwaway key; no protocol key material
	mac := cryptolite.NewLightMACFromSecret([]byte("bench"))
	buf40 := make([]byte, 40)
	buf270 := make([]byte, 270)
	macNs := timeIt(2000, func() { mac.MAC(buf40) })
	hashNs := timeIt(2000, func() { cryptolite.SHA1(buf270) })
	return CostModel{
		MACMs:     macNs * PICSlowdown / 1e6,
		HashMs:    hashNs * PICSlowdown / 1e6,
		IOSmallMs: 1.0,
		IOLargeMs: 20.0,
	}
}

// RateConfig is the workload shape behind Tables 1–2 (§5.1 "Worst-case
// overall load"): T_audit = 4 s, T_state = 1.5 s, T_control = 0.25 s,
// f_max = 3, 10 connected peers.
type RateConfig struct {
	TAuditSec   float64
	TStateSec   float64
	TControlSec float64
	Fmax        int
	Peers       int
}

// PaperRateConfig returns the §5.1 configuration.
func PaperRateConfig() RateConfig {
	return RateConfig{TAuditSec: 4, TStateSec: 1.5, TControlSec: 0.25, Fmax: 3, Peers: 10}
}

// LoadRow is one line of Table 1 or Table 2.
type LoadRow struct {
	Primitive string
	MsPerOp   float64
	OpsPerSec float64
	LoadPct   float64
}

func row(name string, ms, ops float64) LoadRow {
	return LoadRow{Primitive: name, MsPerOp: ms, OpsPerSec: ops, LoadPct: ms * ops / 10}
}

// Table1 computes the worst-case a-node load. Rate derivations
// (conservative, as in the paper):
//
//   - one authenticator per audit round;
//   - 2·(f_max+1) token requests and validations per round (the
//     auditee may re-solicit once before responses land);
//   - as auditor, a robot is asked ≈2·(f_max+1) times per round in
//     expectation (each of its peers spreads that many requests over
//     an equal number of candidate auditors);
//   - small sends: one state broadcast per T_state plus one token per
//     audit served; small recvs: `Peers` state broadcasts per T_state
//     plus the auditee's own incoming tokens;
//   - large (≤2 kB, audit-flagged) traffic: outgoing requests as
//     auditee plus incoming requests as auditor;
//   - one actuator command per control period.
func Table1(cfg RateConfig, costs CostModel) []LoadRow {
	reqRate := 2 * float64(cfg.Fmax+1) / cfg.TAuditSec // token requests as auditee
	serveRate := 2 * float64(cfg.Fmax+1) / cfg.TAuditSec
	authRate := 1 / cfg.TAuditSec
	stateTx := 1 / cfg.TStateSec
	stateRx := float64(cfg.Peers) / cfg.TStateSec
	actRate := 1 / cfg.TControlSec
	chainShare := costs.HashMs / 10 // batched hashing, batch size 10 (§3.8)

	rows := []LoadRow{
		row("makeAuthenticator", costs.MACMs+costs.HashMs, authRate),
		row("isTokenValid", costs.MACMs, reqRate),
		row("makeTokenRequest", costs.MACMs, reqRate),
		row("sendWireless (state and token, <40B)", costs.IOSmallMs+chainShare, stateTx+serveRate),
		row("sendWireless (audit, <2kB)", costs.IOLargeMs, reqRate),
		row("recvWireless (state and token, <40B)", costs.IOSmallMs+chainShare, stateRx+reqRate),
		row("recvWireless (audit, <2kB)", costs.IOLargeMs, serveRate),
		row("actuatorCmd", costs.IOSmallMs+chainShare, actRate),
		row("issueToken", 2*costs.MACMs, serveRate),
	}
	return withTotal(rows)
}

// Table2 computes the worst-case s-node load: sensor polls, its own
// authenticator per round, and two authenticator checks per audit
// served (the auditor verifies both of the auditee's chains on its own
// trusted hardware).
func Table2(cfg RateConfig, costs CostModel) []LoadRow {
	serveRate := 2 * float64(cfg.Fmax+1) / cfg.TAuditSec
	rows := []LoadRow{
		row("pollSensors", costs.IOSmallMs+costs.HashMs/10, 1/cfg.TControlSec),
		row("makeAuthenticator", costs.MACMs+costs.HashMs, 1/cfg.TAuditSec),
		row("checkAuthenticator", 2*costs.MACMs, serveRate),
	}
	return withTotal(rows)
}

func withTotal(rows []LoadRow) []LoadRow {
	total := 0.0
	for _, r := range rows {
		total += r.LoadPct
	}
	return append(rows, LoadRow{Primitive: "Total", LoadPct: total})
}
