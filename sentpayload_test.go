package roborebound

import (
	"bytes"
	"testing"

	"roborebound/internal/wire"
)

// TestSentPayloadsStayPut holds every sender to the rule that a sent
// payload is never written again (DESIGN.md, "Byte ownership on the
// data path"). It builds and runs the quick dense cell, attacker
// included, by RunChaos's own steps, with a transmit hook that clones
// every frame the medium enqueues — small payloads carved from the
// robots' slabs, request payloads, and at a 66-byte MTU the fragments
// cut from one buffer — and checks at the end of the run that each
// payload still holds the bytes it was sent with. The cell's
// fingerprint must be RunChaos's: the hook observes the run without
// changing it.
func TestSentPayloadsStayPut(t *testing.T) {
	for _, mtu := range []int{0, 66} {
		cfg := denseQuickCell(36)
		cfg.MTUBytes = mtu
		cfg = cfg.withDefaults()
		cell := buildChaosCell(cfg)
		if len(cell.attackers) == 0 {
			t.Fatal("the cell has no attacker")
		}
		s := cell.sim

		var sent, clones [][]byte
		fragments, small := 0, 0
		delay := cell.sched.TxDelay(s.Engine.Now)
		s.Medium.SetTxDelay(func(from wire.RobotID, f wire.Frame) wire.Tick {
			sent, clones = append(sent, f.Payload), append(clones, bytes.Clone(f.Payload))
			if f.Flags&wire.FlagFragment != 0 {
				fragments++
			} else if cap(f.Payload) <= wire.AuditResponseSize {
				small++
			}
			if delay == nil {
				return 0
			}
			return delay(from, f)
		})
		res := cell.run(cfg)

		if small == 0 || mtu > 0 && fragments == 0 {
			t.Fatalf("MTU %d: %d small payloads and %d fragments sent; the run exercises nothing", mtu, small, fragments)
		}
		for i := range sent {
			if !bytes.Equal(sent[i], clones[i]) {
				t.Fatalf("MTU %d: payload %d of %d was written after it was sent:\n now %x\n was %x",
					mtu, i, len(sent), sent[i], clones[i])
			}
		}
		if got, want := res.Metrics.Fingerprint, RunChaos(cfg).Metrics.Fingerprint; got != want {
			t.Errorf("MTU %d: the hooked run's fingerprint %x is not RunChaos's %x", mtu, got, want)
		}
		t.Logf("MTU %d: %d payloads unchanged (%d small, %d fragments)", mtu, len(sent), small, fragments)
	}
}
