package attack

import (
	"roborebound/internal/cryptolite"
	"roborebound/internal/wire"
)

// Colluder is the strongest token-forging adversary the threat model
// allows: a ring of up to f_max compromised robots that mint tokens
// for each other *without auditing* (their a-nodes happily issue
// tokens — IssueToken checks the request MAC, not the log). The
// security argument (§3.10) says this is not enough: each member can
// collect at most f_max tokens this way, one short of the f_max+1 its
// own a-node demands, so the ring still dies within T_val once it
// misbehaves.
//
// The ring members also run the spoofing payload so there is
// misbehavior to hide.
type Colluder struct {
	// Ring lists all compromised robots (including this one).
	Ring []wire.RobotID
	// Payload is the actual attack to carry out (nil = just collude).
	Payload Strategy

	// Exchange is wired by the harness: it carries ring-internal token
	// requests out of band (colluders trust each other, so they don't
	// bother with radio for coordination — the paper's adversary "can
	// reprogram these nodes" arbitrarily).
	Exchange *CollusionExchange
}

// CollusionExchange is the colluders' shared side channel. Each tick,
// members deposit a-node-signed token requests addressed to every
// other member; members answer them with real IssueToken calls
// (hardware will mint tokens for valid requests — issuing requires no
// audit evidence, only a valid request MAC) and install what they get.
type CollusionExchange struct {
	// pending[auditor] = requests awaiting that auditor's signature.
	pending map[wire.RobotID][]wire.TokenRequest
	// minted[auditee] = tokens ready to install.
	minted map[wire.RobotID][]wire.Token
	// members' a-node access, registered by the harness.
	issue   map[wire.RobotID]func(wire.TokenRequest, cryptolite.ChainHash) (wire.Token, bool)
	request map[wire.RobotID]func(wire.RobotID) (wire.TokenRequest, bool)
	install map[wire.RobotID]func(wire.Token) bool
}

// NewCollusionExchange creates an empty side channel.
func NewCollusionExchange() *CollusionExchange {
	return &CollusionExchange{
		pending: make(map[wire.RobotID][]wire.TokenRequest),
		minted:  make(map[wire.RobotID][]wire.Token),
		issue:   make(map[wire.RobotID]func(wire.TokenRequest, cryptolite.ChainHash) (wire.Token, bool)),
		request: make(map[wire.RobotID]func(wire.RobotID) (wire.TokenRequest, bool)),
		install: make(map[wire.RobotID]func(wire.Token) bool),
	}
}

// Register wires one ring member's trusted-node entry points.
func (x *CollusionExchange) Register(id wire.RobotID,
	request func(wire.RobotID) (wire.TokenRequest, bool),
	issue func(wire.TokenRequest, cryptolite.ChainHash) (wire.Token, bool),
	install func(wire.Token) bool) {
	x.request[id] = request
	x.issue[id] = issue
	x.install[id] = install
}

// step runs one member's collusion round: ask every ring peer for a
// token, answer every pending request, install every minted token.
func (x *CollusionExchange) step(self wire.RobotID, ring []wire.RobotID) {
	req := x.request[self]
	if req == nil {
		return
	}
	for _, peer := range ring {
		if peer == self {
			continue
		}
		if r, ok := req(peer); ok {
			x.pending[peer] = append(x.pending[peer], r)
		}
	}
	if issue := x.issue[self]; issue != nil {
		for _, r := range x.pending[self] {
			if tok, ok := issue(r, cryptolite.ChainHash{}); ok {
				x.minted[r.Auditee] = append(x.minted[r.Auditee], tok)
			}
		}
		x.pending[self] = nil
	}
	if install := x.install[self]; install != nil {
		for _, tok := range x.minted[self] {
			install(tok)
		}
		x.minted[self] = nil
	}
}

// Name implements Strategy.
func (c *Colluder) Name() string { return "colluder" }

// Act implements Strategy.
func (c *Colluder) Act(ctx *Ctx) {
	if c.Exchange != nil {
		c.Exchange.step(ctx.ID, c.Ring)
	}
	if c.Payload != nil {
		c.Payload.Act(ctx)
	}
}
