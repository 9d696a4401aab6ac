package serve

import (
	"bytes"
	"encoding/json"
	"fmt"

	rr "roborebound"
	"roborebound/internal/faultinject"
	"roborebound/internal/obs"
	"roborebound/internal/wire"
)

// Executor maps validated job requests onto the repository's
// deterministic facades. The server path and the direct path
// (RunJobDirect, used by the HTTP≡facade differential matrix) share
// runJob, so everything a job computes is byte-identical between
// them by construction.
type Executor struct {
	Store *ArtifactStore
}

// NamedBlob is one produced artifact, in a fixed per-kind order.
type NamedBlob struct {
	Name string
	Data []byte
}

// JobOutput is everything one executed job produced. Result is the
// deterministic JSON result document (the Status.Result field);
// Artifacts are the deterministic byte artifacts. Checkpoint, when
// non-nil, is an interrupted chaos cell's boundary snapshot.
type JobOutput struct {
	Result     []byte
	Artifacts  []NamedBlob
	Checkpoint []byte
}

// execHooks thread the scheduler-side control signals into a run.
// The zero value (direct path) runs to completion with no progress
// reporting.
type execHooks struct {
	// progress receives per-cell sweep completion events.
	progress func(Event)
	// interrupt is polled at chaos tick boundaries (drain checkpoint
	// or cancel).
	interrupt func() bool
}

// resolveFunc dereferences a resume handle to its snapshot bytes.
type resolveFunc func(ResumeRef) ([]byte, error)

// Run is the scheduler's Run hook: execute the job, store its
// artifacts, and return the terminal state.
func (e *Executor) Run(j *Job) (State, string) {
	hooks := execHooks{
		progress:  func(ev Event) { j.Publish(ev) },
		interrupt: j.InterruptRequested,
	}
	out, err := runJob(j.Req, e.resolve, hooks)
	if j.Cancelled() {
		// Client cancel: whatever the run produced — an interrupted
		// cell, a sweep that could not stop early — is abandoned and
		// nothing is stored.
		return StateCancelled, ""
	}
	if err != nil {
		return StateFailed, err.Error()
	}
	var infos []ArtifactInfo
	for _, blob := range out.Artifacts {
		info, err := e.Store.Put(j.ID, blob.Name, blob.Data)
		if err != nil {
			return StateFailed, err.Error()
		}
		infos = append(infos, info)
	}
	if out.Checkpoint != nil {
		info, err := e.Store.Put(j.ID, CheckpointArtifact, out.Checkpoint)
		if err != nil {
			return StateFailed, err.Error()
		}
		infos = append(infos, info)
		j.SetOutput(out.Result, infos)
		return StateCheckpointed, ""
	}
	j.SetOutput(out.Result, infos)
	return StateDone, ""
}

func (e *Executor) resolve(ref ResumeRef) ([]byte, error) {
	return e.Store.Get(ref.Job, ref.Artifact)
}

// RunJobDirect executes a request through the exact code path the
// server uses, minus HTTP, scheduling, and storage — the oracle side
// of the differential matrix. resolve may be nil for kinds that take
// no resume handle.
func RunJobDirect(req *JobRequest, resolve resolveFunc) (*JobOutput, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return runJob(req, resolve, execHooks{})
}

// jobWorkers defaults intra-job sweep parallelism to 1: serial cells
// make the progress-event sequence (and thus the NDJSON stream) a
// deterministic function of the request.
func jobWorkers(req *JobRequest) int {
	if req.Workers <= 0 {
		return 1
	}
	return req.Workers
}

// sweepProgress adapts a facade progress callback to the job event
// stream. Elapsed is wall clock and deliberately dropped.
func sweepProgress(hooks execHooks) func(rr.SweepProgress) {
	if hooks.progress == nil {
		return nil
	}
	return func(p rr.SweepProgress) {
		hooks.progress(Event{Label: p.Label, Done: p.Done, Total: p.Total})
	}
}

// chaosCell builds the ChaosConfig a chaos-family request describes.
// Zero-valued knobs keep the facade's defaults.
func chaosCell(req *JobRequest) rr.ChaosConfig {
	return rr.ChaosConfig{
		Controller:  req.Controller,
		Profile:     faultinject.Profile(req.Profile),
		Seed:        req.Seed,
		N:           req.N,
		DurationSec: req.DurationSec,
		Fmax:        req.Fmax,
		SpacingM:    req.SpacingM,
		MTUBytes:    req.MTUBytes,
	}
}

// chaosView is the deterministic result document of a chaos-family
// job. Wall-clock fields never appear here.
type chaosView struct {
	Kind              string   `json:"kind"`
	Label             string   `json:"label"`
	Fingerprint       string   `json:"fingerprint"`
	Robots            int      `json:"robots"`
	Attackers         int      `json:"attackers"`
	AttackersDisabled int      `json:"attackers_disabled"`
	RoundsCovered     uint64   `json:"rounds_covered"`
	TxBytes           uint64   `json:"tx_bytes"`
	RxBytes           uint64   `json:"rx_bytes"`
	DroppedFrames     uint64   `json:"dropped_frames"`
	Schedule          []string `json:"schedule,omitempty"`
	Violation         string   `json:"violation,omitempty"`
	Interrupted       bool     `json:"interrupted,omitempty"`
	CheckpointTick    uint64   `json:"checkpoint_tick,omitempty"`
	SnapshotTicks     []uint64 `json:"snapshot_ticks,omitempty"`
	TraceEvents       int      `json:"trace_events,omitempty"`
}

func viewOfChaos(kind string, res *rr.ChaosResult, traceEvents int) chaosView {
	v := chaosView{
		Kind:              kind,
		Label:             res.Config.Label(),
		Fingerprint:       res.Metrics.Fingerprint,
		Robots:            res.Metrics.Robots,
		Attackers:         res.Metrics.Attackers,
		AttackersDisabled: res.Metrics.AttackersDisabled,
		RoundsCovered:     res.Metrics.RoundsCovered,
		TxBytes:           res.Metrics.TxBytes,
		RxBytes:           res.Metrics.RxBytes,
		DroppedFrames:     res.Metrics.DroppedFrames,
		Schedule:          res.Schedule,
		Interrupted:       res.Interrupted,
		TraceEvents:       traceEvents,
	}
	if res.Violation != nil {
		v.Violation = res.Violation.Error()
	}
	if res.Checkpoint != nil {
		v.CheckpointTick = uint64(res.Checkpoint.Tick)
	}
	for _, s := range res.Snapshots {
		v.SnapshotTicks = append(v.SnapshotTicks, uint64(s.Tick))
	}
	return v
}

// chaosDurationSec is the run length a chaos-family request gets: its
// own, or RunChaos's 60 s default.
func (r *JobRequest) chaosDurationSec() float64 {
	if r.DurationSec == 0 {
		return 60
	}
	return r.DurationSec
}

func marshalResult(v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("serve: marshal result: %w", err)
	}
	return data, nil
}

// runJob executes one validated request through its kind's row. Every
// run function returns either an error or a fully deterministic
// JobOutput.
func runJob(req *JobRequest, resolve resolveFunc, hooks execHooks) (*JobOutput, error) {
	k := kindByName(req.Kind)
	if k == nil {
		return nil, fmt.Errorf("serve: unknown job kind %q", req.Kind)
	}
	return k.run(k, req, resolve, hooks)
}

// resumeVerifyView reports a resume-verify comparison: the resumed
// run against an uninterrupted oracle of the same cell.
type resumeVerifyView struct {
	Kind               string `json:"kind"`
	Label              string `json:"label"`
	ResumedFingerprint string `json:"resumed_fingerprint"`
	OracleFingerprint  string `json:"oracle_fingerprint,omitempty"`
	FingerprintMatch   bool   `json:"fingerprint_match"`
	MetricsMatch       bool   `json:"metrics_match"`
}

// runCellJob runs the one chaos cell a cell kind describes — built
// from the request's knobs, or rebuilt from the resume handle's
// snapshot — and renders the kind's artifacts and result document.
func runCellJob(k *jobKind, req *JobRequest, resolve resolveFunc, hooks execHooks) (*JobOutput, error) {
	var col *obs.Collector
	if k.traced || req.Events {
		col = obs.NewCollector()
	}
	attach := func(cfg *rr.ChaosConfig) {
		cfg.Interrupt = hooks.interrupt
		if col != nil {
			cfg.Trace = col
		}
	}

	var res rr.ChaosResult
	if k.resumes {
		if resolve == nil {
			return nil, fmt.Errorf("serve: kind %q needs an artifact resolver", req.Kind)
		}
		data, err := resolve(*req.Resume)
		if err != nil {
			return nil, fmt.Errorf("serve: resolve resume handle: %w", err)
		}
		res, err = rr.ResumeChaosSnapshot(data, attach)
		if err != nil {
			return nil, err
		}
	} else {
		cfg := chaosCell(req)
		if cfg.Profile == "" {
			cfg.Profile = k.profile
		}
		if k.capture {
			at := req.SnapshotAtTick
			if at == 0 {
				at = uint64(req.chaosDurationSec() * rr.TicksPerSecond / 2) // midpoint
			}
			cfg.SnapshotAtTicks = []wire.Tick{wire.Tick(at)}
		}
		attach(&cfg)
		res = rr.RunChaos(cfg)
	}
	out := &JobOutput{}
	if res.Checkpoint != nil {
		out.Checkpoint = res.Checkpoint.Data
	}

	for _, name := range k.artifacts {
		var buf bytes.Buffer
		var err error
		switch {
		case name == metricsArtifact:
			// The renderer behind the CLI's WriteMetricsJSON, so the
			// differential matrix can compare against a direct export
			// byte-for-byte; the rendered slice is the artifact.
			out.Artifacts = append(out.Artifacts, NamedBlob{Name: name, Data: obs.AppendMetricsJSON(nil, res.MetricsSnapshot)})
			continue
		case name == eventsArtifact && col != nil:
			err = obs.WriteNDJSON(&buf, col.Events())
		case name == perfettoArtifact && req.Perfetto:
			err = obs.WriteChromeTrace(&buf, col.Events(), obs.TickMapping{TicksPerSecond: rr.TicksPerSecond})
		case name == snapshotArtifact && !res.Interrupted:
			// Validate keeps snapshot_at_tick within the run, and a run
			// that reaches its end has captured every tick it was asked for.
			out.Artifacts = append(out.Artifacts, NamedBlob{Name: name, Data: res.Snapshots[0].Data})
			continue
		default:
			continue
		}
		if err != nil {
			return nil, err
		}
		out.Artifacts = append(out.Artifacts, NamedBlob{Name: name, Data: buf.Bytes()})
	}

	traceEvents := 0
	if col != nil {
		traceEvents = col.Len()
	}
	var view any = viewOfChaos(req.Kind, &res, traceEvents)
	if k.verify && !res.Interrupted {
		// The resumed run must match the same cell run uninterrupted
		// from tick zero — the serving layer's restatement of the
		// repo's resume-equivalence contract.
		v := rr.VerifyChaosResume(res)
		if !v.FingerprintMatch || !v.MetricsMatch {
			return nil, fmt.Errorf("serve: resume-verify mismatch for %s (fingerprint match %v, metrics match %v)",
				res.Config.Label(), v.FingerprintMatch, v.MetricsMatch)
		}
		view = resumeVerifyView{
			Kind:               req.Kind,
			Label:              res.Config.Label(),
			ResumedFingerprint: res.Metrics.Fingerprint,
			OracleFingerprint:  v.OracleFingerprint,
			FingerprintMatch:   v.FingerprintMatch,
			MetricsMatch:       v.MetricsMatch,
		}
	}
	var err error
	if out.Result, err = marshalResult(view); err != nil {
		return nil, err
	}
	return out, nil
}

// sweepOutput is a sweep kind's whole output: its points under its
// kind, no artifacts.
func sweepOutput(kind string, points any) (*JobOutput, error) {
	result, err := marshalResult(struct {
		Kind   string `json:"kind"`
		Points any    `json:"points"`
	}{kind, points})
	if err != nil {
		return nil, err
	}
	return &JobOutput{Result: result}, nil
}

func runFig6Job(_ *jobKind, req *JobRequest, _ resolveFunc, hooks execHooks) (*JobOutput, error) {
	cfg := rr.Fig6Config{
		N:           req.N,
		SpacingM:    req.SpacingM,
		DurationSec: req.DurationSec,
		Seed:        req.Seed,
		Fmaxes:      req.Fmaxes,
		PeriodsSec:  req.PeriodsSec,
	}
	if cfg.DurationSec == 0 {
		cfg.DurationSec = 20 // a served job defaults shorter than the paper's 50 s
	}
	points := rr.RunFig6Sweep(cfg, rr.SweepOptions{
		Workers: jobWorkers(req), Progress: sweepProgress(hooks),
	})
	return sweepOutput(req.Kind, points)
}

func runFig7Job(_ *jobKind, req *JobRequest, _ resolveFunc, hooks execHooks) (*JobOutput, error) {
	dur := req.DurationSec
	if dur == 0 {
		dur = 15 // served default: a smoke-sized sweep, not the paper's 50 s
	}
	opts := rr.SweepOptions{Workers: jobWorkers(req), Progress: sweepProgress(hooks)}
	var points []rr.Fig7Point
	if req.Kind == KindFig7Density {
		sizes := req.Sizes
		if len(sizes) == 0 {
			sizes = []int{16, 36}
		}
		spacings := req.Spacings
		if len(spacings) == 0 {
			spacings = []float64{4, 64}
		}
		points = rr.RunFig7DensitySweep(sizes, spacings, dur, req.Seed, opts)
	} else {
		sizes := req.Sizes
		if len(sizes) == 0 {
			sizes = []int{16, 36, 64}
		}
		points = rr.RunFig7ScaleSweep(sizes, dur, req.Seed, opts)
	}
	return sweepOutput(req.Kind, points)
}
