package radio

import (
	"bytes"
	"testing"

	"roborebound/internal/geom"
	"roborebound/internal/prng"
	"roborebound/internal/wire"
)

// TestStationsRoundTrip captures a fragmenting medium whose receiver
// holds an incomplete frame, restores the blob onto a fresh medium and
// requires it to encode to the same bytes, with the sender's msgID
// counter and the pending buffer carried over.
func TestStationsRoundTrip(t *testing.T) {
	p := DefaultParams()
	p.MTUBytes = 66
	pos := posMap{1: geom.V(0, 0), 2: geom.V(10, 0)}
	m := NewMedium(p, pos.fn, 1)
	// Withhold every frame's last fragment, so robot 2 keeps a buffer.
	m.SetLinkFilter(func(_, _ wire.RobotID, f wire.Frame) bool {
		return f.Flags&wire.FlagFragment != 0 && f.Payload[2] == f.Payload[3]-1
	})
	for _, n := range []int{300, 200} {
		f := bigFrame(n)
		f.Dst = 2
		m.Send(1, f)
	}
	m.Deliver([]wire.RobotID{1, 2})
	blob := m.EncodeState()

	fresh := NewMedium(p, pos.fn, 1)
	if err := fresh.RestoreState(blob); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !bytes.Equal(fresh.EncodeState(), blob) {
		t.Fatal("a restored medium encodes to other bytes")
	}
	if got := fresh.stations[1].nextMsgID; !fresh.stations[1].sent || got != 2 {
		t.Errorf("sender: sent %v, next msgID %d; want true, 2", fresh.stations[1].sent, got)
	}
	if r := fresh.stations[2].reasm; r == nil || r.Pending() != 2 {
		t.Errorf("receiver's reassembler %v, want 2 pending frames", r)
	}
}

// TestRestoreRefusesStrayStationState: a snapshot's sender and
// reassembler entries name only robots its counters section lists, and
// a reassembler records the medium's timeout. A blob that breaks either
// rule is refused.
func TestRestoreRefusesStrayStationState(t *testing.T) {
	blob := func(sender, reasm wire.RobotID, timeout wire.Tick) []byte {
		w := wire.NewWriter(128)
		w.U32(0) // queue
		w.U64(0) // seq
		w.U32(1) // counters: robot 1
		w.U16(1)
		for range 7 {
			w.U64(0)
		}
		w.U32(1) // senders
		w.U16(uint16(sender))
		w.U16(3)
		w.U32(1) // reassemblers, with no buffers
		w.U16(uint16(reasm))
		w.U64(uint64(timeout))
		w.U32(0)
		w.U64(0) // deliverTick
		for _, s := range prng.New(1).State() {
			w.U64(s)
		}
		return w.Bytes()
	}
	for _, tc := range []struct {
		name          string
		sender, reasm wire.RobotID
		timeout       wire.Tick
		ok            bool
	}{
		{"valid", 1, 1, reassemblyTimeout, true},
		{"sender without counters", 2, 1, reassemblyTimeout, false},
		{"reassembler without counters", 1, 2, reassemblyTimeout, false},
		{"other timeout", 1, 1, reassemblyTimeout / 2, false},
	} {
		m := NewMedium(DefaultParams(), posMap{}.fn, 1)
		err := m.RestoreState(blob(tc.sender, tc.reasm, tc.timeout))
		if (err == nil) != tc.ok {
			t.Errorf("%s: restore returned %v", tc.name, err)
		}
		if !tc.ok && len(m.stations) != 0 {
			t.Errorf("%s: a refused restore left %d stations", tc.name, len(m.stations))
		}
	}
}
