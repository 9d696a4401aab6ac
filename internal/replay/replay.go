// Package replay implements the auditor's core check (§3.7):
// deterministic replay of an auditee's log segment. The auditor
// initializes a replica of the auditee's controller from the start
// checkpoint, replays the logged inputs, verifies that the replica's
// outputs match the logged outputs byte-for-byte, and reconstructs
// both trusted-node hash chains so that the end-of-segment
// authenticators certify the *entire* segment at once.
package replay

import (
	"bytes"
	"fmt"
	"slices"

	"roborebound/internal/auditlog"
	"roborebound/internal/control"
	"roborebound/internal/cryptolite"
	"roborebound/internal/trusted"
	"roborebound/internal/wire"
)

// Request is a fully decoded audit request, ready for verification.
// The core package decodes wire.AuditRequest into this.
type Request struct {
	Auditee  wire.RobotID
	ReqT     wire.Tick // the a-node timestamp from the token request
	FromBoot bool
	Start    *auditlog.Checkpoint // nil ⇔ FromBoot
	End      auditlog.Checkpoint
	Entries  []wire.LogEntry
}

// Config parameterizes verification.
type Config struct {
	// Factory reconstructs the auditee's controller (every robot runs
	// the mission-installed protocol, so the auditor has it).
	Factory control.Factory
	// BatchSize is the trusted nodes' chain batch size.
	BatchSize int
	// AuthSlack is how much older than the token request the
	// end-of-segment authenticators may be, in ticks. It covers the
	// auditee's retry window (asking additional auditors for the same
	// checkpoint at slightly later times); anything older is treated
	// as a stale-prefix replay attack.
	AuthSlack wire.Tick
	// CheckAuthenticator verifies an authenticator MAC on the
	// auditor's own trusted hardware.
	CheckAuthenticator func(wire.Authenticator) bool
	// Machine, when set, is the machine Verify replays on; an auditor
	// that verifies segment after segment keeps one. Nil replays on a
	// fresh machine per call.
	Machine *Machine
}

// Machine is what a replay runs on: the two chain replicas (s-node,
// a-node), the auditee's controller replica, and the buffer the
// replayed end state is encoded into. Verify repositions all of it at
// the segment's start, whatever the last replay — for any auditee,
// accepted or rejected part-way — left in it, so once its buffers have
// grown to a segment's needs a replay allocates nothing. It keeps no
// reference to a request: the replica copies what it reads, and the
// chains hold hashes. The zero value is ready to use.
type Machine struct {
	chains [2]trusted.Chain
	ctrl   control.Controller
	state  []byte
}

// Failure describes why a replay was rejected. It implements error;
// auditors don't act on the detail (the paper's auditor silently
// ignores bad requests) but tests and operators do.
type Failure struct {
	Stage string // which check failed
	Entry int    // entry index, or -1
	Msg   string
}

func (f *Failure) Error() string {
	if f.Entry >= 0 {
		return fmt.Sprintf("replay: %s at entry %d: %s", f.Stage, f.Entry, f.Msg)
	}
	return fmt.Sprintf("replay: %s: %s", f.Stage, f.Msg)
}

func fail(stage string, entry int, format string, args ...any) error {
	return &Failure{Stage: stage, Entry: entry, Msg: fmt.Sprintf(format, args...)}
}

// Verify replays the request. It returns nil when the segment is a
// correct execution of the auditee's controller, and a *Failure
// explaining the first divergence otherwise.
func Verify(req Request, cfg Config) error {
	// --- end-of-segment authenticator checks -------------------------
	for _, check := range []struct {
		auth wire.Authenticator
		kind uint8
		name string
	}{
		{req.End.AuthS, wire.NodeS, "s-node"},
		{req.End.AuthA, wire.NodeA, "a-node"},
	} {
		a := check.auth
		if a.ID != req.Auditee {
			return fail("authenticator", -1, "%s authenticator for robot %d, want %d", check.name, a.ID, req.Auditee)
		}
		if a.NodeKind != check.kind {
			return fail("authenticator", -1, "%s authenticator has kind %d", check.name, a.NodeKind)
		}
		if a.T > req.ReqT {
			return fail("authenticator", -1, "%s authenticator from the future (t=%d > req %d)", check.name, a.T, req.ReqT)
		}
		if a.T+cfg.AuthSlack < req.ReqT {
			return fail("authenticator", -1, "%s authenticator stale (t=%d, req %d, slack %d)", check.name, a.T, req.ReqT, cfg.AuthSlack)
		}
		if cfg.CheckAuthenticator == nil || !cfg.CheckAuthenticator(a) {
			return fail("authenticator", -1, "%s authenticator MAC invalid", check.name)
		}
	}
	if req.End.Time > req.ReqT || req.End.Time+cfg.AuthSlack < req.ReqT {
		return fail("checkpoint", -1, "end checkpoint time %d inconsistent with request time %d", req.End.Time, req.ReqT)
	}

	// --- controller replica and chain replicas -----------------------
	m := cfg.Machine
	if m == nil {
		m = new(Machine)
	}
	sChain, aChain := &m.chains[0], &m.chains[1]
	var startState []byte // nil: the initial state
	if req.FromBoot {
		sChain.ResetAt(cryptolite.ChainHash{}, cfg.BatchSize)
		aChain.ResetAt(cryptolite.ChainHash{}, cfg.BatchSize)
	} else {
		if req.Start == nil {
			return fail("checkpoint", -1, "no start checkpoint and not from boot")
		}
		if startState = req.Start.State; startState == nil {
			return fail("checkpoint", -1, "start checkpoint carries no state")
		}
		sChain.ResetAt(req.Start.AuthS.Top, cfg.BatchSize)
		aChain.ResetAt(req.Start.AuthA.Top, cfg.BatchSize)
	}
	ctrl, err := cfg.Factory.Load(m.ctrl, req.Auditee, startState)
	if err != nil {
		return fail("checkpoint", -1, "start state rejected: %v", err)
	}
	m.ctrl = ctrl

	// --- replay -------------------------------------------------------
	// wantSend and wantCmd hold the encodings of outputs the controller
	// has produced that the log must record next, send first (nil: none
	// outstanding). There is at most one of each, because no input is
	// accepted while any is outstanding, so they are encoded into these
	// two fixed arrays and a replayed entry costs no allocation of its
	// own (a broadcast too large to have been logged spills to the heap
	// and then fails the comparison).
	var (
		wantSend, wantCmd []byte
		sendEnc           [wire.FrameHeaderSize + wire.MaxLoggedPayload]byte
		cmdEnc            [wire.ActuatorCmdSize]byte
	)
	for i, e := range req.Entries {
		outstanding := wantSend != nil || wantCmd != nil
		switch e.Kind {
		case wire.EntrySensor:
			if outstanding {
				return fail("order", i, "input before prior outputs were logged")
			}
			sChain.AppendEntry(e.Kind, e.Payload)
			reading, err := wire.DecodeSensorReading(e.Payload)
			if err != nil {
				return fail("decode", i, "bad sensor payload: %v", err)
			}
			out := ctrl.OnSensor(reading)
			if out.Broadcast != nil {
				frame := wire.Frame{Src: req.Auditee, Dst: wire.Broadcast, Payload: out.Broadcast}
				wantSend = frame.AppendEncode(sendEnc[:0])
			}
			if out.HasCmd {
				wantCmd = out.Cmd.AppendEncode(cmdEnc[:0])
			}

		case wire.EntryRecv:
			if outstanding {
				return fail("order", i, "input before prior outputs were logged")
			}
			aChain.AppendEntry(e.Kind, e.Payload)
			frame, err := wire.DecodeFrame(e.Payload)
			if err != nil {
				return fail("decode", i, "bad recv frame: %v", err)
			}
			ctrl.OnMessage(frame.Payload)

		case wire.EntryMark:
			if outstanding {
				return fail("order", i, "checkpoint marker before prior outputs were logged")
			}
			// A checkpoint was taken here: the trusted nodes flushed
			// their chains, so the replicas must flush too to keep the
			// batch phase aligned.
			sChain.Flush()
			aChain.Flush()

		case wire.EntrySend, wire.EntryActuator:
			var wantKind uint8
			var want []byte
			switch {
			case wantSend != nil:
				wantKind, want, wantSend = wire.EntrySend, wantSend, nil
			case wantCmd != nil:
				wantKind, want, wantCmd = wire.EntryActuator, wantCmd, nil
			default:
				return fail("output", i, "logged output the controller did not produce")
			}
			if e.Kind != wantKind || !bytes.Equal(e.Payload, want) {
				return fail("output", i, "output diverges from controller (kind %d vs %d)", e.Kind, wantKind)
			}
			aChain.AppendEntry(e.Kind, e.Payload)

		default:
			return fail("decode", i, "unknown entry kind 0x%02x", e.Kind)
		}
	}
	if wantSend != nil || wantCmd != nil {
		return fail("output", len(req.Entries), "controller produced outputs missing from the log")
	}

	// --- final state and chain tops -----------------------------------
	if sTop := sChain.Flush(); sTop != req.End.AuthS.Top {
		return chainMismatch("s-node", sTop, req.End.AuthS.Top)
	}
	if aTop := aChain.Flush(); aTop != req.End.AuthA.Top {
		return chainMismatch("a-node", aTop, req.End.AuthA.Top)
	}
	m.state = ctrl.AppendState(m.state[:0])
	if !bytes.Equal(m.state, req.End.State) {
		return fail("state", -1, "end checkpoint state diverges from replayed state")
	}
	return nil
}

// chainMismatch reports a replayed chain top that is not the attested
// one. The tops are its own copies: slicing req's for the message would
// move every request Verify reads to the heap.
func chainMismatch(node string, replayed, attested cryptolite.ChainHash) error {
	return fail("chain", -1, "%s chain mismatch: replayed %x, attested %x", node, replayed[:4], attested[:4])
}

// TokensCoverStart validates the tokens presented for the start
// checkpoint (§3.7): there must be at least fmax+1 of them, from
// distinct auditors, each a valid token issued *to the auditee* and
// binding exactly the start checkpoint's hash. verify runs the MAC
// check on the auditor's own trusted hardware.
func TokensCoverStart(auditee wire.RobotID, startHash cryptolite.ChainHash,
	tokens []wire.Token, fmax int, verify func(wire.Token) bool) error {
	distinct := 0
	for i, tok := range tokens {
		if tok.Auditee != auditee {
			return fail("tokens", -1, "token for robot %d presented by %d", tok.Auditee, auditee)
		}
		if tok.Auditor == auditee {
			return fail("tokens", -1, "self-issued token")
		}
		if tok.HCkpt != startHash {
			return fail("tokens", -1, "token does not cover the start checkpoint")
		}
		if verify == nil || !verify(tok) {
			return fail("tokens", -1, "token MAC invalid")
		}
		// A request carries a handful of tokens (the wire format caps them
		// at 255), so "seen before" is a scan of the ones already checked.
		if !slices.ContainsFunc(tokens[:i], func(t wire.Token) bool { return t.Auditor == tok.Auditor }) {
			distinct++
		}
	}
	if distinct < fmax+1 {
		return fail("tokens", -1, "%d distinct auditors, need %d", distinct, fmax+1)
	}
	return nil
}
