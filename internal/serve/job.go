package serve

import (
	"encoding/json"
	"sync"
	"sync/atomic"

	rr "roborebound"
)

// State is a job's lifecycle stage.
type State string

const (
	// StateQueued: admitted, waiting in its tenant's FIFO queue.
	StateQueued State = "queued"
	// StateRunning: an executor worker owns it.
	StateRunning State = "running"
	// StateDone: completed; result and artifacts are final.
	StateDone State = "done"
	// StateFailed: the executor returned an error (see Status.Error).
	StateFailed State = "failed"
	// StateCancelled: cancelled by the client, either while queued or
	// mid-run.
	StateCancelled State = "cancelled"
	// StateCheckpointed: a graceful drain interrupted the run at a
	// tick boundary; the checkpoint artifact plus the Resubmit request
	// in the status document continue it byte-identically.
	StateCheckpointed State = "checkpointed"
	// StateRejected: drained out of the queue before starting. The
	// status document carries the original request as a resubmission
	// handle; nothing was lost.
	StateRejected State = "rejected"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCancelled, StateCheckpointed, StateRejected:
		return true
	}
	return false
}

// Progress is how far a sweep job has got: Done of Total cells have
// finished, the last of them Label. It is a pure function of the
// request and of how many cells have finished.
type Progress struct {
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Label string `json:"label,omitempty"`
}

// ArtifactInfo describes one stored artifact in a status document.
type ArtifactInfo struct {
	Name   string `json:"name"`
	Size   int64  `json:"size"`
	SHA256 string `json:"sha256"`
}

// Status is the job document GET /v1/jobs/{id} returns (with ?wait=1,
// once the job is terminal). QueueNs and RunNs are wall-clock telemetry
// (perf-clock durations) and are the only nondeterministic fields;
// everything else is a pure function of the request.
type Status struct {
	ID        string          `json:"id"`
	Tenant    string          `json:"tenant"`
	Kind      string          `json:"kind"`
	State     State           `json:"state"`
	Error     string          `json:"error,omitempty"`
	QueueNs   int64           `json:"queue_ns,omitempty"`
	RunNs     int64           `json:"run_ns,omitempty"`
	Artifacts []ArtifactInfo  `json:"artifacts,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	// Resubmit is a ready-to-POST request for continuing this job:
	// the original request for a drain-rejected job, or a resume
	// request referencing the checkpoint artifact for a checkpointed
	// one.
	Resubmit json.RawMessage `json:"resubmit,omitempty"`
	// Progress is set on a sweep job once its first cell finishes; a
	// chaos-cell job has none.
	Progress *Progress `json:"progress,omitempty"`
}

// Job is one submitted unit of work. The scheduler owns state
// transitions; the executor fills result and artifacts; the HTTP
// layer reads snapshots via Status() and waits on terminal.
type Job struct {
	ID     string
	Tenant string
	Req    *JobRequest

	// reqBody is the canonical encoding of Req — the resubmission
	// handle a drain rejection returns.
	reqBody []byte

	// cancelled is set by a client cancel; drainCheckpoint asks a
	// running job to checkpoint at its next tick boundary (graceful
	// drain). Cancel abandons the work, drain preserves it.
	cancelled, drainCheckpoint atomic.Bool

	mu        sync.Mutex
	state     State
	errMsg    string
	result    []byte
	artifacts []ArtifactInfo
	progress  *Progress
	// terminal is closed once, when the job reaches a terminal state —
	// a broadcast that wakes every long poll.
	terminal chan struct{}

	submittedNs, startedNs, doneNs int64
}

func newJob(id, tenant string, req *JobRequest, body []byte, now int64) *Job {
	return &Job{
		ID:          id,
		Tenant:      tenant,
		Req:         req,
		reqBody:     body,
		state:       StateQueued,
		terminal:    make(chan struct{}),
		submittedNs: now,
	}
}

// setProgress records a sweep's progress; Elapsed is wall clock and
// dropped. Each call stores a new Progress and none is written after,
// so Status shares the pointer. A terminal job keeps the progress it
// ended with.
func (j *Job) setProgress(p rr.SweepProgress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		j.progress = &Progress{Done: p.Done, Total: p.Total, Label: p.Label}
	}
}

// setState transitions the job and closes terminal on the transition
// that ends it. Terminal states are sticky: once terminal, further
// transitions are ignored (a cancel racing a completion keeps
// whichever landed first).
func (j *Job) setState(s State, errMsg string, now int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = s
	j.errMsg = errMsg
	switch s {
	case StateRunning:
		j.startedNs = now
	case StateDone, StateFailed, StateCancelled, StateCheckpointed, StateRejected:
		j.doneNs = now
		close(j.terminal)
	}
}

// State returns the current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// SetOutput records the executor's result document and artifact
// listing. Called by the worker before the terminal transition.
func (j *Job) SetOutput(result []byte, artifacts []ArtifactInfo) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.result = result
	j.artifacts = artifacts
}

// RequestDrainCheckpoint asks the running executor to checkpoint at
// the next tick boundary. Safe to call at any time from any
// goroutine; jobs whose kind cannot checkpoint simply run to
// completion.
func (j *Job) RequestDrainCheckpoint() { j.drainCheckpoint.Store(true) }

// InterruptRequested is the ChaosConfig.Interrupt hook: true once the
// job is cancelled or a drain wants a checkpoint.
func (j *Job) InterruptRequested() bool {
	return j.drainCheckpoint.Load() || j.cancelled.Load()
}

// cancel marks the job cancelled; the executor polls it.
func (j *Job) cancel() { j.cancelled.Store(true) }

// Cancelled reports whether the client cancelled the job (DELETE), as
// opposed to a drain checkpoint request.
func (j *Job) Cancelled() bool { return j.cancelled.Load() }

// Status snapshots the job document.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:     j.ID,
		Tenant: j.Tenant,
		Kind:   j.Req.Kind,
		State:  j.state,
		Error:  j.errMsg,
	}
	if j.startedNs > j.submittedNs {
		st.QueueNs = j.startedNs - j.submittedNs
	}
	if j.doneNs > j.startedNs && j.startedNs > 0 {
		st.RunNs = j.doneNs - j.startedNs
	}
	st.Progress = j.progress
	st.Artifacts = append(st.Artifacts, j.artifacts...)
	if len(j.result) > 0 {
		st.Result = append(json.RawMessage(nil), j.result...)
	}
	switch j.state {
	case StateRejected:
		st.Resubmit = append(json.RawMessage(nil), j.reqBody...)
	case StateCheckpointed:
		if handle, err := (&JobRequest{
			Version: RequestVersion,
			Kind:    KindResume,
			Workers: j.Req.Workers,
			Resume:  &ResumeRef{Job: j.ID, Artifact: CheckpointArtifact},
		}).Encode(); err == nil {
			st.Resubmit = handle
		}
	}
	return st
}

// CheckpointArtifact is the artifact name a drain checkpoint lands
// under.
const CheckpointArtifact = "checkpoint.rbsn"
