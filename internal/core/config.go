// Package core implements the RoboRebound protocol engine — the
// paper's primary contribution. It binds the trusted nodes, the
// tamper-evident log, and deterministic replay into the two roles
// every c-node plays:
//
//   - auditee: checkpoint every T_audit, stream the log segment to
//     f_max+1 nearby auditors with a-node-signed token requests,
//     install the returned tokens, and truncate the log once a
//     checkpoint is covered (§3.5–3.7);
//   - auditor: validate incoming audit requests, replay them, and
//     issue tokens through the local a-node only when replay succeeds.
//
// The engine is deliberately ignorant of the simulator: it talks to
// the world only through the trusted-node methods and a send hook, so
// the same code would drive a real c-node.
package core

import (
	"roborebound/internal/trusted"
	"roborebound/internal/wire"
)

// retryDelay is how long the auditee waits for responses before
// soliciting additional auditors (the paper waits 50 ms past its
// expected round trip; here the radio round trip is 2 ticks, so it
// waits 3 — retrying earlier only duplicates every request and roughly
// doubles audit bandwidth). It is a count of radio ticks, not a time
// scaled by the tick rate.
const retryDelay wire.Tick = 3

// Config collects the protocol parameters. Defaults mirror the
// paper's evaluation setup (§5.1–5.2).
type Config struct {
	// Fmax is the maximum number of compromised robots tolerated.
	Fmax int
	// TAudit is the audit round period in ticks (4 s in the paper).
	TAudit wire.Tick
	// TVal is the token validity window in ticks; it bounds the
	// misbehavior window (BTI).
	TVal wire.Tick
	// AuthSlack is how stale end-of-segment authenticators may be
	// relative to the token request; it must cover the auditee's
	// retry window within one round.
	AuthSlack wire.Tick
	// HeardWindow is how long a peer stays an auditor candidate after
	// we last heard any frame from it.
	HeardWindow wire.Tick
	// BatchSize is the trusted-node hash-chain batch size (§3.8).
	BatchSize int
	// ServeLimit caps how many audits this robot will serve per TVal
	// window (§5.1 assumes "a robot may agree to 6·f_max audit
	// requests per token validity interval"); beyond it, requests are
	// silently ignored like any other refusal. 0 disables the cap.
	ServeLimit int
	// Bucket parameters for the a-node's token-request rate limiter.
	BucketCapacity float64
	Rho            float64 // bucket units per tick
	MinPerToken    float64
}

// AutoServeLimit derives a serve budget with ~2× headroom over the
// expected honest demand: each of a robot's peers spreads f_max+1
// requests per audit round over roughly as many candidate auditors as
// the robot has peers, so expected serves per T_val window are
// ≈ (f_max+1)·T_val/T_audit. At the paper's defaults this lands at 20,
// matching its 6·f_max = 18 assumption. The budget rounds up, so a
// period that does not divide 2(f_max+1)·T_val keeps its headroom: at
// T_audit = 8 s, f_max = 0 gets 3 serves (2 starve a 9-robot flock and
// Safe-Mode correct robots). Call after changing Fmax, TVal, or TAudit.
func (c *Config) AutoServeLimit() {
	if c.TAudit == 0 {
		c.ServeLimit = 0
		return
	}
	audit := int(c.TAudit)
	c.ServeLimit = (2*(c.Fmax+1)*int(c.TVal) + audit - 1) / audit
}

// DefaultConfig returns the paper-matched protocol parameters at the
// given tick rate: f_max = 3, T_audit = 4 s, T_val = 10 s.
func DefaultConfig(ticksPerSecond float64) Config {
	cfg := Config{
		Fmax:           3,
		TAudit:         wire.Tick(4 * ticksPerSecond),
		TVal:           wire.Tick(10 * ticksPerSecond),
		AuthSlack:      wire.Tick(4 * ticksPerSecond),
		HeardWindow:    wire.Tick(6 * ticksPerSecond),
		BatchSize:      trusted.DefaultBatchSize,
		BucketCapacity: 16,
		Rho:            4 / ticksPerSecond,
		MinPerToken:    1,
	}
	cfg.AutoServeLimit()
	return cfg
}

// ANodeConfig derives the a-node's configuration from the protocol
// parameters, keeping the two views consistent.
func (c Config) ANodeConfig() trusted.ANodeConfig {
	return trusted.ANodeConfig{
		Fmax:           c.Fmax,
		TVal:           c.TVal,
		BatchSize:      c.BatchSize,
		BucketCapacity: c.BucketCapacity,
		Rho:            c.Rho,
		MinPerToken:    c.MinPerToken,
	}
}

// Stats is a point-in-time snapshot of the protocol counters for the
// evaluation harness. It stays a plain comparable value struct (tests
// compare snapshots with ==); the live tallies behind it are obs
// counters — see Engine.Instrument.
type Stats struct {
	RoundsStarted   uint64
	RoundsCovered   uint64
	RoundsAbandoned uint64 // rounds replaced while still uncovered
	AuditsRequested uint64 // requests sent as auditee
	AuditsServed    uint64 // tokens issued as auditor
	AuditsRefused   uint64 // requests rejected as auditor (replay/token failures)
	TokensInstalled uint64
	TokensRejected  uint64 // invalid tokens received
}
