package obs

import (
	"testing"

	"roborebound/internal/wire"
)

func TestEventKindNames(t *testing.T) {
	seen := make(map[string]EventKind)
	for k := EventKind(0); k < numEventKinds; k++ {
		name := k.String()
		if name == "" {
			t.Fatalf("kind %d has empty name", k)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("kinds %d and %d share name %q", prev, k, name)
		}
		seen[name] = k
	}
	if got := EventKind(200).String(); got != "kind-200" {
		t.Fatalf("out-of-range kind name = %q", got)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Tick: 7, Robot: 3, Kind: EvTokenGranted, Peer: 5, Value: 2}
	want := "tick=7 robot=3 token-granted peer=5 value=2"
	if got := e.String(); got != want {
		t.Fatalf("Event.String() = %q, want %q", got, want)
	}
	d := Event{Tick: 1, Robot: 4, Kind: EvFrameDropped, Peer: 2, Cause: CauseLoss, Value: 80}
	want = "tick=1 robot=4 frame-dropped peer=2 cause=loss value=80"
	if got := d.String(); got != want {
		t.Fatalf("Event.String() = %q, want %q", got, want)
	}
}

func TestEmitNilTracer(t *testing.T) {
	// Must not panic.
	Emit(nil, Event{Tick: 1, Robot: 2, Kind: EvFrameTx})
}

// TestEmitDisabledZeroAlloc pins the tentpole's "zero-alloc when
// disabled" contract: constructing an event and offering it to a nil
// tracer must not allocate.
func TestEmitDisabledZeroAlloc(t *testing.T) {
	var tr Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		Emit(tr, Event{
			Tick:  99,
			Robot: 7,
			Kind:  EvFrameRx,
			Peer:  3,
			Value: 128,
		})
	})
	if allocs != 0 {
		t.Fatalf("disabled-tracer emit allocates %v times per op, want 0", allocs)
	}
}

func TestCollectorOrder(t *testing.T) {
	c := NewCollector()
	in := []Event{
		{Tick: 3, Robot: 1, Kind: EvAuditRoundStart},
		{Tick: 3, Robot: 2, Kind: EvFrameTx, Peer: wire.Broadcast},
		{Tick: 4, Robot: 1, Kind: EvAuditRoundComplete, Value: 1},
	}
	for _, e := range in {
		Emit(c, e)
	}
	if c.Len() != len(in) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(in))
	}
	for i, e := range c.Events() {
		if e != in[i] {
			t.Fatalf("event %d = %+v, want %+v", i, e, in[i])
		}
	}
}

func TestFlightRecorderBoundsAndOrder(t *testing.T) {
	f := NewFlightRecorder(1)
	// 100 protocol events for robot 1, interleaved with robot 2's:
	// only robot 1's last 64 survive.
	for i := 0; i < 100; i++ {
		f.Emit(Event{Tick: wire.Tick(i), Robot: 1, Kind: EvTokenGranted, Value: int64(i)})
		f.Emit(Event{Tick: wire.Tick(i), Robot: 2, Kind: EvTokenGranted, Value: -1})
	}
	got := f.Events()
	if len(got) != flightRing {
		t.Fatalf("retained %d events, want %d", len(got), flightRing)
	}
	for i, e := range got {
		if want := int64(100 - flightRing + i); e.Robot != 1 || e.Value != want {
			t.Fatalf("event %d = robot %d value %d, want robot 1 value %d (its last 64, in order)", i, e.Robot, e.Value, want)
		}
	}
	if NewFlightRecorder(3).Events() != nil {
		t.Fatal("a recorder whose robot never emitted should dump nil")
	}
}

func TestFlightRecorderPlaneIsolation(t *testing.T) {
	f := NewFlightRecorder(5)
	// Protocol history first, then a flood of frame events.
	f.Emit(Event{Tick: 1, Robot: 5, Kind: EvSafeModeEntered})
	f.Emit(Event{Tick: 2, Robot: 5, Kind: EvTokenExpired})
	for i := 0; i < 200; i++ {
		f.Emit(Event{Tick: wire.Tick(10 + i), Robot: 5, Kind: EvFrameRx})
	}
	got := f.Events()
	var protocol []Event
	for _, e := range got {
		if !e.Kind.FramePlane() {
			protocol = append(protocol, e)
		}
	}
	if len(protocol) != 2 || protocol[0].Kind != EvSafeModeEntered || protocol[1].Kind != EvTokenExpired {
		t.Fatalf("frame flood evicted protocol history: %v", protocol)
	}
	if len(got) != 2+flightRing {
		t.Fatalf("retained %d events, want the 2 protocol events and the last %d frames", len(got), flightRing)
	}
	// Merged dump is in emission order: protocol events precede the
	// surviving frame events.
	if got[0].Kind != EvSafeModeEntered || got[1].Kind != EvTokenExpired || got[2].Tick != 10+200-flightRing {
		t.Fatalf("merged dump out of order: %v", got[:3])
	}
}
