package trusted

import (
	"bytes"
	"testing"

	"roborebound/internal/wire"
)

func stateFrame(src wire.RobotID, t wire.Tick) wire.Frame {
	m := wire.StateMsg{Src: src, Time: t, PosX: float32(src), PosY: 2, VelX: 3, VelY: 4}
	return wire.Frame{Src: src, Dst: wire.Broadcast, Payload: m.Encode()}
}

// TestDataPathDoesNotAllocate pins the steady-state data path at zero
// allocations per call: the nodes encode into their own buffers and
// lend the bytes out. The counts are exact — nothing here depends on
// timing — so any allocation that creeps back in fails the test.
func TestDataPathDoesNotAllocate(t *testing.T) {
	var now wire.Tick
	clock := func() wire.Tick { return now }
	s := NewSNode(DefaultBatchSize, clock)
	logged := make([]byte, 0, 512) // the c-node's copy, as auditlog.Log.Append makes it
	var sent, driven int
	a := NewANode(DefaultANodeConfig(4), clock,
		func(wire.Frame) { sent++ },
		func(_ wire.Frame, enc []byte) { logged = append(logged[:0], enc...) },
		func(wire.ActuatorCmd) { driven++ },
		nil)
	s.LoadMasterKey(testMaster, 1)
	a.LoadMasterKey(testMaster, 1)
	if !s.LoadMissionKey(testSealed(1)) || !a.LoadMissionKey(testSealed(1)) {
		t.Fatal("mission key rejected")
	}
	in, out := stateFrame(2, 5), stateFrame(1, 5)
	reading := wire.SensorReading{Time: 5, PosX: 1, PosY: 2, VelX: 3, VelY: 4}
	cmd := wire.ActuatorCmd{Time: 5, AccX: 0.5, AccY: -0.5}

	for _, c := range []struct {
		name string
		call func()
	}{
		{"ANode.RecvWireless", func() { a.RecvWireless(in) }},
		{"ANode.SendWirelessEnc", func() {
			if _, ok := a.SendWirelessEnc(out); !ok {
				t.Fatal("send refused")
			}
		}},
		{"ANode.ActuatorCmdEnc", func() {
			if _, ok := a.ActuatorCmdEnc(cmd); !ok {
				t.Fatal("actuator command refused")
			}
		}},
		{"SNode.PollSensorsEnc", func() {
			if _, _, ok := s.PollSensorsEnc(reading); !ok {
				t.Fatal("reading withheld")
			}
		}},
	} {
		if n := testing.AllocsPerRun(200, c.call); n != 0 {
			t.Errorf("%s allocates %v per call at steady state, want 0", c.name, n)
		}
	}
	if sent == 0 || driven == 0 || !bytes.Equal(logged, in.Encode()) {
		t.Fatalf("hooks not exercised: sent=%d driven=%d logged=%x", sent, driven, logged)
	}
}

// TestRecvEncodingSurvivesHookSends is why the a-node keeps its receive
// buffer apart from its send/actuator buffer. The c-node hook runs
// between a reception's encode and its chain append; a c-node that
// transmits and drives the motors from inside the hook must not be able
// to rewrite the bytes the chain is about to commit. The chain top has
// to equal a replica fed fresh encodings in commit order.
func TestRecvEncodingSurvivesHookSends(t *testing.T) {
	var now wire.Tick
	in, out := stateFrame(2, 9), stateFrame(1, 9)
	cmd := wire.ActuatorCmd{Time: 9, AccX: 1, AccY: 2}
	var a *ANode
	var lent []byte
	a = NewANode(DefaultANodeConfig(4), func() wire.Tick { return now }, nil,
		func(_ wire.Frame, enc []byte) {
			a.SendWirelessEnc(out)
			a.ActuatorCmdEnc(cmd)
			lent = bytes.Clone(enc) // read after the sends: still the received frame?
		}, nil, nil)
	a.LoadMasterKey(testMaster, 1)
	if !a.LoadMissionKey(testSealed(1)) {
		t.Fatal("mission key rejected")
	}
	a.RecvWireless(in)
	if !bytes.Equal(lent, in.Encode()) {
		t.Errorf("lent receive encoding rewritten by sends inside the hook:\n got  %x\n want %x", lent, in.Encode())
	}
	replica := NewChain(DefaultBatchSize)
	replica.AppendEntry(wire.EntrySend, out.Encode())
	replica.AppendEntry(wire.EntryActuator, cmd.Encode())
	replica.AppendEntry(wire.EntryRecv, in.Encode())
	auth, ok := a.MakeAuthenticator()
	if !ok {
		t.Fatal("no authenticator")
	}
	if want := replica.Flush(); auth.Top != want {
		t.Errorf("chain committed rewritten bytes: top %x, replica %x", auth.Top[:4], want[:4])
	}
}
