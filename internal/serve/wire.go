package serve

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	rr "roborebound"
	"roborebound/internal/core"
	"roborebound/internal/faultinject"
	"roborebound/internal/wire"
)

// RequestVersion is the job-request codec version. Decoding rejects
// any other value, so old clients fail loudly instead of being
// reinterpreted.
const RequestVersion = 1

// MaxRequestBytes bounds one encoded job request. The HTTP layer
// enforces it with http.MaxBytesReader before a single byte is
// parsed; DecodeJobRequest re-checks so non-HTTP callers (fuzzers,
// tests) get the same bound.
const MaxRequestBytes = 1 << 20

// ResumeRef names a stored artifact of an earlier job — the handle a
// resume job dereferences for its snapshot bytes.
type ResumeRef struct {
	Job      string `json:"job"`
	Artifact string `json:"artifact"`
}

// JobRequest is the wire form of one submitted job. One flat struct
// covers every kind; each kind's jobKinds row says which fields it
// takes, and Validate rejects the rest. All fields are bounded — a
// request that passes Validate can never make the executor allocate
// or compute unboundedly.
type JobRequest struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"`

	// Chaos-family cell parameters (chaos, trace, snapshot).
	Controller  string  `json:"controller,omitempty"`
	Profile     string  `json:"profile,omitempty"`
	Seed        uint64  `json:"seed,omitempty"`
	N           int     `json:"n,omitempty"`
	DurationSec float64 `json:"duration_sec,omitempty"`
	Fmax        int     `json:"fmax,omitempty"`
	SpacingM    float64 `json:"spacing_m,omitempty"`
	MTUBytes    int     `json:"mtu_bytes,omitempty"`

	// Artifact selection: Events adds an events.ndjson artifact to a
	// chaos cell (trace always produces one); Perfetto adds the
	// Chrome trace-event artifact (trace kind only).
	Events   bool `json:"events,omitempty"`
	Perfetto bool `json:"perfetto,omitempty"`

	// Sweep shapes (fig6, fig7-*).
	Sizes      []int     `json:"sizes,omitempty"`
	Spacings   []float64 `json:"spacings,omitempty"`
	Fmaxes     []int     `json:"fmaxes,omitempty"`
	PeriodsSec []float64 `json:"periods_sec,omitempty"`
	// Workers bounds intra-job sweep parallelism. Scheduler-level
	// parallelism comes from the worker pool; per-job fan-out is
	// capped so one tenant's sweep cannot monopolize the host.
	Workers int `json:"workers,omitempty"`

	// Snapshot / resume.
	SnapshotAtTick uint64     `json:"snapshot_at_tick,omitempty"` // 0 = midpoint
	Resume         *ResumeRef `json:"resume,omitempty"`
}

// Hard caps. Every numeric knob is clamped against these in Validate;
// they bound the worst-case cost of one admitted job.
const (
	maxN           = 2000
	maxDurationSec = 300
	maxFmax        = 16
	maxSpacingM    = 10000
	maxMTUBytes    = 1 << 16
	maxJobWorkers  = 8
	maxSweepLen    = 16
)

// chaosLimits are the protocol bounds RunChaos hands the fault
// generator.
var chaosLimits = func() faultinject.Limits {
	cc := core.DefaultConfig(rr.TicksPerSecond)
	return faultinject.Limits{TVal: cc.TVal, TAudit: cc.TAudit}
}()

// DecodeJobRequest parses and validates one job request. The decoder
// rejects unknown fields, trailing data, oversized input, and any
// out-of-bounds knob; it returns an error for every malformed input
// and never panics (FuzzJobRequestDecode pins that).
func DecodeJobRequest(data []byte) (*JobRequest, error) {
	if len(data) > MaxRequestBytes {
		return nil, fmt.Errorf("serve: request is %d bytes; limit %d", len(data), MaxRequestBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req JobRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("serve: decode job request: %w", err)
	}
	// Exactly one JSON value: trailing tokens are a malformed request,
	// not an extension point.
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("serve: trailing data after job request")
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// Encode validates and marshals the request in canonical form
// (struct field order; no indentation). The encoded bytes are what a
// rejected job's resubmission handle carries.
func (r *JobRequest) Encode() ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(r)
}

// knownProfile reports whether p names a fault profile the generator
// understands ("" means the kind's default).
func knownProfile(p string) bool {
	if p == "" {
		return true
	}
	for _, k := range faultinject.Profiles() {
		if string(k) == p {
			return true
		}
	}
	return false
}

func boundedFloat(name string, v, lo, hi float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < lo || v > hi {
		return fmt.Errorf("serve: %s %g out of range [%g, %g]", name, v, lo, hi)
	}
	return nil
}

func boundedInt(name string, v, lo, hi int) error {
	if v < lo || v > hi {
		return fmt.Errorf("serve: %s %d out of range [%d, %d]", name, v, lo, hi)
	}
	return nil
}

// Validate bounds every field and enforces kind-specific shape. A nil
// error means the executor can run the request without any further
// input checking.
func (r *JobRequest) Validate() error {
	if r == nil {
		return errors.New("serve: nil job request")
	}
	if r.Version != RequestVersion {
		return fmt.Errorf("serve: job request version %d not supported (want %d)", r.Version, RequestVersion)
	}
	k := kindByName(r.Kind)
	if k == nil {
		return fmt.Errorf("serve: unknown job kind %q", r.Kind)
	}
	if name := k.untakenField(r); name != "" {
		return fmt.Errorf("serve: kind %q does not take %s", r.Kind, name)
	}
	switch r.Controller {
	case "", "flocking", "patrol", "warehouse":
	default:
		return fmt.Errorf("serve: unknown controller %q", r.Controller)
	}
	if !knownProfile(r.Profile) {
		return fmt.Errorf("serve: unknown fault profile %q", r.Profile)
	}
	if err := boundedInt("n", r.N, 0, maxN); err != nil {
		return err
	}
	if err := boundedFloat("duration_sec", r.DurationSec, 0, maxDurationSec); err != nil {
		return err
	}
	if err := boundedInt("fmax", r.Fmax, 0, maxFmax); err != nil {
		return err
	}
	if err := boundedFloat("spacing_m", r.SpacingM, 0, maxSpacingM); err != nil {
		return err
	}
	if err := boundedInt("mtu_bytes", r.MTUBytes, 0, maxMTUBytes); err != nil {
		return err
	}
	if err := boundedInt("workers", r.Workers, 0, maxJobWorkers); err != nil {
		return err
	}
	if len(r.Sizes) > maxSweepLen {
		return fmt.Errorf("serve: %d sizes exceeds limit %d", len(r.Sizes), maxSweepLen)
	}
	for _, n := range r.Sizes {
		if err := boundedInt("sizes entry", n, 1, maxN); err != nil {
			return err
		}
	}
	if len(r.Spacings) > maxSweepLen {
		return fmt.Errorf("serve: %d spacings exceeds limit %d", len(r.Spacings), maxSweepLen)
	}
	for _, s := range r.Spacings {
		if err := boundedFloat("spacings entry", s, 0.1, maxSpacingM); err != nil {
			return err
		}
	}
	if len(r.Fmaxes) > maxSweepLen {
		return fmt.Errorf("serve: %d fmaxes exceeds limit %d", len(r.Fmaxes), maxSweepLen)
	}
	for _, f := range r.Fmaxes {
		if err := boundedInt("fmaxes entry", f, 0, maxFmax); err != nil {
			return err
		}
	}
	if len(r.PeriodsSec) > maxSweepLen {
		return fmt.Errorf("serve: %d periods exceeds limit %d", len(r.PeriodsSec), maxSweepLen)
	}
	for _, p := range r.PeriodsSec {
		if err := boundedFloat("periods_sec entry", p, 0.25, 60); err != nil {
			return err
		}
	}
	// Checked here so a snapshot job fails before admission, not after
	// running the whole cell and capturing nothing. (Zero on every
	// kind that does not take the field.)
	total := wire.Tick(r.chaosDurationSec() * rr.TicksPerSecond)
	if r.SnapshotAtTick > uint64(total) {
		return fmt.Errorf("serve: snapshot_at_tick %d is beyond the %d-tick run", r.SnapshotAtTick, total)
	}
	// A cell too short for its profile to schedule a fault would run
	// fault-free under a faulted label.
	if profile := cmp.Or(r.Profile, string(k.profile)); k.takesField("profile") &&
		profile != string(faultinject.ProfileNone) && !faultinject.Schedulable(total, chaosLimits) {
		return fmt.Errorf("serve: duration_sec %g schedules no %s faults; a faulted cell must run longer than %g s",
			r.chaosDurationSec(), profile, float64(2*chaosLimits.TVal+chaosLimits.TAudit)/rr.TicksPerSecond)
	}
	if r.Resume == nil {
		if k.takesField("resume") {
			return fmt.Errorf("serve: kind %q requires a resume handle", r.Kind)
		}
		return nil
	}
	if !validJobID(r.Resume.Job) {
		return fmt.Errorf("serve: resume handle job id %q is invalid", r.Resume.Job)
	}
	if !ValidArtifactName(r.Resume.Artifact) {
		return fmt.Errorf("serve: resume handle artifact name %q is invalid", r.Resume.Artifact)
	}
	return nil
}

// safeName reports whether name is 1..maxLen bytes of [A-Za-z0-9_-],
// plus '.' when dots is set.
func safeName(name string, maxLen int, dots bool) bool {
	if len(name) == 0 || len(name) > maxLen {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '-' || c == '_' || dots && c == '.') {
			return false
		}
	}
	return true
}

// validTenant restricts tenant names to a filesystem- and URL-safe
// alphabet. The tenant name keys scheduler state and metric names, so
// the alphabet is deliberately narrow.
func validTenant(name string) bool { return safeName(name, 32, false) }

// validJobID accepts the IDs the scheduler mints (tenant "-" seq) and
// nothing that could escape a path or a metric name.
func validJobID(id string) bool { return safeName(id, 48, false) }

// ValidArtifactName bounds artifact names to one path segment of a
// safe alphabet — no separators, no dot-prefixed names, so a name can
// never traverse out of the spill directory.
func ValidArtifactName(name string) bool {
	return safeName(name, 64, true) && name[0] != '.'
}
