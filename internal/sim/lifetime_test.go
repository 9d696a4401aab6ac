package sim

import (
	"runtime"
	"testing"
	"weak"

	"roborebound/internal/geom"
	"roborebound/internal/radio"
	"roborebound/internal/wire"
)

// auditSender sends one audit frame to robot to at tick 0 and keeps
// only a weak pointer to its payload.
type auditSender struct {
	id, to  wire.RobotID
	medium  *radio.Medium
	payload weak.Pointer[byte]
}

func (a *auditSender) ActorID() wire.RobotID { return a.id }
func (a *auditSender) Deliver(wire.Frame)    {}
func (a *auditSender) Tick(now wire.Tick) {
	if now != 0 {
		return
	}
	p := make([]byte, 512)
	a.payload = weak.Make(&p[0])
	a.medium.Send(a.id, wire.Frame{Src: a.id, Dst: a.to, Flags: wire.FlagAudit, Payload: p})
}

// countingActor counts what it is handed and keeps none of it.
type countingActor struct {
	id  wire.RobotID
	got int
}

func (a *countingActor) ActorID() wire.RobotID { return a.id }
func (a *countingActor) Deliver(wire.Frame)    { a.got++ }
func (a *countingActor) Tick(wire.Tick)        {}

// TestStepOnceLetsGoOfDeliveredPayloads: once StepOnce has handed a
// frame to its receiver, nothing the Medium or the engine keeps for the
// next round — the walk-order buffer, the sorted delivery slice, the
// queue's backing array behind a frame still in the air — reaches its
// payload. Robot 1 broadcasts a frame the TxDelay hook holds for five
// rounds, so the queue keeps a live prefix while robot 2's audit frame
// to robot 3 is delivered from behind it.
func TestStepOnceLetsGoOfDeliveredPayloads(t *testing.T) {
	w := NewWorld(DefaultWorldConfig())
	for id := wire.RobotID(1); id <= 3; id++ {
		w.AddBody(id, geom.V(5*float64(id), 0))
	}
	m := radio.NewMedium(radio.DefaultParams(), w.Position, 1)
	m.SetTxDelay(func(from wire.RobotID, _ wire.Frame) wire.Tick {
		if from == 1 {
			return 5
		}
		return 0
	})
	e := NewEngine(w, m)
	held := &testActor{id: 1, medium: m}
	sender := &auditSender{id: 2, to: 3, medium: m}
	receiver := &countingActor{id: 3}
	e.AddActor(held)
	e.AddActor(sender)
	e.AddActor(receiver)

	e.StepOnce() // tick 0: robot 1's held frame, then robot 2's audit frame
	e.StepOnce() // tick 1: the audit frame is delivered, the broadcast stays queued
	if receiver.got != 1 {
		t.Fatalf("robot 3 was handed %d frames, want the audit frame alone", receiver.got)
	}
	runtime.GC()
	runtime.GC()
	if sender.payload.Value() != nil {
		t.Error("a delivered audit payload is still reachable after StepOnce")
	}
	e.Run(5)
	if receiver.got != 2 || len(held.got) != 0 {
		t.Fatalf("the held broadcast was not delivered once to robot 3 after its delay (robot 3 got %d frames)", receiver.got)
	}
}
