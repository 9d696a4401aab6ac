package roborebound

import (
	"testing"
)

func TestTable1WithPaperCosts(t *testing.T) {
	rows := Table1(PaperRateConfig(), PaperCostModel())
	if rows[len(rows)-1].Primitive != "Total" {
		t.Fatal("missing Total row")
	}
	total := rows[len(rows)-1].LoadPct
	// Paper: 17.28 % with its measured PIC costs. Our worst-case rate
	// model differs in two rows (documented), so accept a band.
	if total < 10 || total > 25 {
		t.Errorf("a-node total load %.2f%%, want 10–25%% (paper 17.28%%)", total)
	}
	// Row-level sanity: each row's load = ms × ops / 10.
	for _, r := range rows[:len(rows)-1] {
		want := r.MsPerOp * r.OpsPerSec / 10
		if diff := r.LoadPct - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: load %.4f ≠ ms×ops/10 = %.4f", r.Primitive, r.LoadPct, want)
		}
	}
}

func TestTable2WithPaperCosts(t *testing.T) {
	rows := Table2(PaperRateConfig(), PaperCostModel())
	total := rows[len(rows)-1].LoadPct
	if total < 2 || total > 10 {
		t.Errorf("s-node total load %.2f%%, want 2–10%% (paper 5.99%%)", total)
	}
	// The paper's headline shape: a-node load well above s-node load.
	aTotal := Table1(PaperRateConfig(), PaperCostModel())
	if aTotal[len(aTotal)-1].LoadPct <= total {
		t.Error("a-node load should exceed s-node load")
	}
}

func TestRateConfigScaling(t *testing.T) {
	costs := PaperCostModel()
	base := Table1(PaperRateConfig(), costs)
	baseTotal := base[len(base)-1].LoadPct

	// §5.1: "utilization is approximately linear to T_audit and the
	// number of other robots one has connection with, while it is not
	// sensitive to f_max or T_control."
	slow := PaperRateConfig()
	slow.TAuditSec = 8
	slowTotal := total(Table1(slow, costs))
	if slowTotal >= baseTotal {
		t.Errorf("halving the audit rate should cut load: %.2f vs %.2f", slowTotal, baseTotal)
	}

	fastCtl := PaperRateConfig()
	fastCtl.TControlSec = 0.125
	fastTotal := total(Table1(fastCtl, costs))
	if fastTotal > baseTotal*1.2 {
		t.Errorf("doubling the control rate should barely matter: %.2f vs %.2f", fastTotal, baseTotal)
	}

	morePeers := PaperRateConfig()
	morePeers.Peers = 20
	peersTotal := total(Table1(morePeers, costs))
	if peersTotal <= baseTotal {
		t.Error("more peers should raise load")
	}
}

func total(rows []LoadRow) float64 { return rows[len(rows)-1].LoadPct }

func TestMeasuredCostModelSane(t *testing.T) {
	m := MeasuredCostModel()
	if m.MACMs <= 0 || m.HashMs <= 0 {
		t.Fatalf("non-positive costs: %+v", m)
	}
	// The PIC-scaled crypto costs should land in the same decade as
	// the paper's measurements (MAC ~10 ms, hash ~1 ms).
	if m.MACMs < 0.5 || m.MACMs > 100 {
		t.Errorf("MAC cost %.2f ms implausible vs paper ~10 ms", m.MACMs)
	}
	if m.HashMs < 0.1 || m.HashMs > 30 {
		t.Errorf("hash cost %.2f ms implausible vs paper ~1 ms", m.HashMs)
	}
	if m.IOSmallMs != 1 || m.IOLargeMs != 20 {
		t.Error("I/O costs should use the paper's measured values")
	}
}

func TestFig5aLatencyShape(t *testing.T) {
	hash := MeasureHashLatency(300)
	mac := MeasureMACLatency(300)
	if len(hash) != len(Fig5aSizes) || len(mac) != len(Fig5aSizes) {
		t.Fatal("wrong number of points")
	}
	// Monotone-ish growth: the largest input costs more than the
	// smallest for both primitives (timer noise makes strict
	// monotonicity flaky).
	if hash[len(hash)-1].HostNs <= hash[0].HostNs {
		t.Error("hash cost not growing with size")
	}
	if mac[len(mac)-1].HostNs <= mac[0].HostNs {
		t.Error("MAC cost not growing with size")
	}
	// MAC is the more expensive primitive at 2 kB (Fig. 5a shape).
	if mac[len(mac)-1].HostNs <= hash[len(hash)-1].HostNs {
		t.Error("MAC should cost more than hash at equal size")
	}
	// PIC scaling is a fixed multiple.
	for _, h := range hash {
		want := h.HostNs * PICSlowdown / 1e6
		if h.PICMs != want {
			t.Errorf("PICMs inconsistent: %v vs %v", h.PICMs, want)
		}
	}
}

func TestFig5bIOShape(t *testing.T) {
	send, recv := MeasureIOLatency(300)
	if len(send) != len(Fig5bSizes) || len(recv) != len(Fig5bSizes) {
		t.Fatal("wrong number of points")
	}
	if send[len(send)-1].HostNs <= send[0].HostNs {
		t.Error("send cost not growing with size (should be linear past ~512 B)")
	}
}

// TestLatencyDistShape checks the per-iteration percentile summary
// every microbenchmark now carries: populated, ordered (p50 ≤ p95 ≤
// p99), and with the mean matching the legacy HostNs field.
func TestLatencyDistShape(t *testing.T) {
	hash := MeasureHashLatency(200)
	mac := MeasureMACLatency(200)
	send, recv := MeasureIOLatency(200)
	for _, group := range [][]HostTiming{hash, mac, send, recv} {
		for _, pt := range group {
			d := pt.Dist
			if d.MeanNs <= 0 {
				t.Fatalf("%d B: non-positive mean %v", pt.Bytes, d.MeanNs)
			}
			if d.MeanNs != pt.HostNs {
				t.Errorf("%d B: Dist.MeanNs %v ≠ HostNs %v", pt.Bytes, d.MeanNs, pt.HostNs)
			}
			if d.P50Ns <= 0 || d.P95Ns < d.P50Ns || d.P99Ns < d.P95Ns {
				t.Errorf("%d B: percentiles unordered: p50=%v p95=%v p99=%v",
					pt.Bytes, d.P50Ns, d.P95Ns, d.P99Ns)
			}
		}
	}
}
