package roborebound

import (
	"fmt"
	"strings"
	"testing"

	"roborebound/internal/faultinject"
	"roborebound/internal/obs"
	"roborebound/internal/wire"
)

// TestChaosMTUFloor: at the smallest MTU a chaos cell accepts, an audit
// response still travels unfragmented, so WithholdAudit and DelayAudit
// entries act on it and change the cell's fingerprint. One byte below,
// where a response would fragment and those entries would do nothing,
// RunChaos refuses the cell before building it.
func TestChaosMTUFloor(t *testing.T) {
	cell := ChaosConfig{Profile: faultinject.ProfileNone, Seed: 3, DurationSec: 40, MTUBytes: faultinject.MinMTUBytes}
	plain := RunChaos(cell).Metrics.Fingerprint
	cell.ExtraFaults = []faultinject.Fault{
		{Kind: faultinject.WithholdAudit, Start: 40, Duration: 60, Targets: []wire.RobotID{1, 2, 4, 5}},
		{Kind: faultinject.DelayAudit, Start: 40, Duration: 60, Targets: []wire.RobotID{6, 7, 8, 9}, DelayTicks: 3},
	}
	if faulted := RunChaos(cell).Metrics.Fingerprint; faulted == plain {
		t.Errorf("at MTU %d the withhold and delay entries leave the fingerprint unchanged", cell.MTUBytes)
	}

	cell.MTUBytes--
	defer func() {
		msg := fmt.Sprint(recover())
		if want := fmt.Sprint(faultinject.MinMTUBytes); !strings.Contains(msg, want) {
			t.Errorf("RunChaos at MTU %d: recovered %q, want a panic naming the floor %s", cell.MTUBytes, msg, want)
		}
	}()
	RunChaos(cell)
}

// oversizeDrops counts the frames a medium refused as oversize.
type oversizeDrops int

func (n *oversizeDrops) Emit(e obs.Event) {
	if e.Kind == obs.EvFrameDropped && e.Cause == obs.CauseOversize {
		*n++
	}
}

// TestChaosOversizeAuditRequestIsDropped: at the RFM69's 66-byte FIFO
// (Appendix B) the audit requests of a 64-robot flock need more
// fragments than a fragment header can number. The medium refuses each
// like a lost frame and the cell runs to its end.
func TestChaosOversizeAuditRequestIsDropped(t *testing.T) {
	var drops oversizeDrops
	res := RunChaos(ChaosConfig{Controller: "flocking", Seed: 1, N: 64, DurationSec: 30, MTUBytes: 66, ChaosRun: ChaosRun{Trace: &drops}})
	if drops == 0 {
		t.Fatal("no frame was refused as oversize; the cell does not exercise the refusal")
	}
	if res.Metrics.DroppedFrames < uint64(drops) {
		t.Errorf("%d frames dropped in all, fewer than the %d oversize refusals", res.Metrics.DroppedFrames, drops)
	}
}

// TestFragmentOutageThreshold pins where link loss on one robot becomes
// an audit outage. The protocol's outage budget is T_val − T_audit =
// 24 ticks: a robot whose audits all fail for that long runs out of
// valid tokens. At the RFM69's 66-byte MTU an audit request spans tens
// of fragments, and one lost fragment loses it, so 10 % loss on robot
// 4 for 24 ticks is already an outage and Safe-Modes it, a correct
// robot. 25 % for 20 ticks stays inside the budget, and unfragmented
// frames survive 25 % for 30 ticks. Each cell is the default cell with
// no generated faults and one LinkLoss from tick 100.
func TestFragmentOutageThreshold(t *testing.T) {
	for _, c := range []struct {
		mtu     int
		ticks   wire.Tick
		rate    float64
		latches bool // no-false-positive on robot 4 at tick 100 + T_val − T_audit
	}{
		{66, 20, 0.25, false},
		{66, 24, 0.10, true},
		{0, 30, 0.25, false},
	} {
		for _, ctrl := range Controllers() {
			cell := ChaosConfig{Controller: ctrl, Profile: faultinject.ProfileNone, Seed: 1, MTUBytes: c.mtu,
				ExtraFaults: []faultinject.Fault{{Kind: faultinject.LinkLoss, Start: 100, Duration: c.ticks,
					Targets: []wire.RobotID{4}, Rate: c.rate}}}
			v := RunChaos(cell).Violation
			if !c.latches {
				if v != nil {
					t.Errorf("%s, %d ticks at %g: %s at tick %d robot %d, want no violation",
						cell.Label(), c.ticks, c.rate, v.Invariant, v.Tick, v.Robot)
				}
				continue
			}
			if want := wire.Tick(100 + chaosTVal - chaosTAudit); v == nil ||
				v.Invariant != "no-false-positive" || v.Tick != want || v.Robot != 4 {
				t.Errorf("%s, %d ticks at %g: violation %v, want no-false-positive at tick %d robot 4",
					cell.Label(), c.ticks, c.rate, v, want)
			}
		}
	}
}
