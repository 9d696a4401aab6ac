package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"roborebound/internal/obs"
	"roborebound/internal/obs/perf"
)

const (
	// maxQueued bounds each tenant's FIFO queue. A submit beyond it is
	// an OverloadError — backpressure, never unbounded growth.
	maxQueued = 64
	// maxRetained bounds how many terminal jobs stay queryable. The
	// oldest terminal job is evicted first.
	maxRetained = 4096
)

// SchedOptions configures a Scheduler.
type SchedOptions struct {
	// Workers is the dispatch pool size (default 2).
	Workers int
	// OnEvict, when set, is told each evicted job's ID so the artifact
	// store can drop its blobs.
	OnEvict func(jobID string)
	// Run executes one job and returns its terminal state plus an
	// error message for StateFailed. Required.
	Run func(*Job) (State, string)
}

// ErrDraining rejects submissions while the scheduler drains.
var ErrDraining = errors.New("serve: scheduler is draining")

// OverloadError is the backpressure signal for a full tenant queue:
// the HTTP layer maps it to 429 with the Retry-After it carries.
type OverloadError struct {
	Tenant        string
	Queued        int
	RetryAfterSec int
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: tenant %q queue is full (%d queued); retry after %ds",
		e.Tenant, e.Queued, e.RetryAfterSec)
}

// tenantState is one tenant's scheduler-side state and tallies. All
// fields are guarded by Scheduler.mu. It is the tenant's obs.Source,
// registered as serve.tenant.<name>. when the tenant first submits.
type tenantState struct {
	name    string
	queue   []*Job // FIFO
	running int

	submitted, rejectedOverload, drainRejected uint64
	completed, failed, cancelled, checkpointed uint64
	queueWaitNs, serviceNs                     *obs.Histogram // on nsBounds
}

// nsBounds are the buckets of the scheduler's nanosecond histograms.
var nsBounds = perf.LogNsBounds()

// WriteSamples implements obs.Source. The caller holds Scheduler.mu.
func (t *tenantState) WriteSamples(w *obs.SampleWriter) {
	w.Value("queue_depth", float64(len(t.queue)))
	w.Value("running", float64(t.running))
	w.Value("submitted", float64(t.submitted))
	w.Value("rejected_overload", float64(t.rejectedOverload))
	w.Value("drain_rejected", float64(t.drainRejected))
	w.Value("completed", float64(t.completed))
	w.Value("failed", float64(t.failed))
	w.Value("cancelled", float64(t.cancelled))
	w.Value("checkpointed", float64(t.checkpointed))
	w.Histogram("queue_wait_ns", t.queueWaitNs)
	w.Histogram("service_ns", t.serviceNs)
}

// Scheduler is the multi-tenant job scheduler. Admission (Submit)
// enforces the per-tenant queue bound; a fixed worker pool dispatches
// round-robin across tenants with queued work, FIFO within a tenant.
type Scheduler struct {
	opts SchedOptions

	mu      sync.Mutex
	cond    *sync.Cond
	tenants map[string]*tenantState
	// metrics holds every tenant's tallies, and whatever else the
	// server registers; snapshot it only under mu.
	metrics *obs.Registry
	// order keeps tenant names sorted so every map-derived iteration
	// below is deterministic given the same state.
	order []string
	// cursor names the tenant that dispatched last; the next pick
	// starts after it in name order.
	cursor       string
	jobs         map[string]*Job
	terminalFIFO []string // terminal job IDs, oldest first, for eviction
	seq          uint64
	runningTotal int
	draining     bool
	closed       bool
	// avgServiceNs is an EWMA of observed service times, feeding the
	// Retry-After estimate. Telemetry-derived, never in results.
	avgServiceNs float64

	wg sync.WaitGroup
}

// NewScheduler builds the scheduler and starts its worker pool.
func NewScheduler(opts SchedOptions) *Scheduler {
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	s := &Scheduler{
		opts:    opts,
		tenants: make(map[string]*tenantState),
		metrics: obs.NewRegistry(),
		jobs:    make(map[string]*Job),
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

func (s *Scheduler) tenantLocked(name string) *tenantState {
	if t, ok := s.tenants[name]; ok {
		return t
	}
	t := &tenantState{name: name, queueWaitNs: obs.NewHistogram(nsBounds), serviceNs: obs.NewHistogram(nsBounds)}
	s.tenants[name] = t
	s.metrics.RegisterPrefix("serve.tenant."+name+".", t)
	i := sort.SearchStrings(s.order, name)
	s.order = append(s.order, "")
	copy(s.order[i+1:], s.order[i:])
	s.order[i] = name
	return t
}

// Submit admits a job for tenant. It returns the job on success,
// ErrDraining during a drain, an *OverloadError when the tenant's
// queue is full, or a validation error for a bad tenant name.
func (s *Scheduler) Submit(tenant string, req *JobRequest, body []byte) (*Job, error) {
	if !validTenant(tenant) {
		return nil, fmt.Errorf("serve: invalid tenant name %q", tenant)
	}
	now := perf.Now()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		return nil, ErrDraining
	}
	t := s.tenantLocked(tenant)
	if len(t.queue) >= maxQueued {
		t.rejectedOverload++
		return nil, &OverloadError{
			Tenant:        tenant,
			Queued:        len(t.queue),
			RetryAfterSec: s.retryAfterLocked(t),
		}
	}
	s.seq++
	id := fmt.Sprintf("%s-%d", tenant, s.seq)
	j := newJob(id, tenant, req, body, now)
	t.queue = append(t.queue, j)
	s.jobs[id] = j
	t.submitted++
	s.cond.Broadcast()
	return j, nil
}

// retryAfterLocked estimates how long the caller should back off:
// queue depth times the EWMA service time, divided across the pool,
// clamped to [1s, 60s].
func (s *Scheduler) retryAfterLocked(t *tenantState) int {
	avg := s.avgServiceNs
	if avg <= 0 {
		avg = 1e8 // 100ms prior before any job has finished
	}
	est := float64(len(t.queue)+s.runningTotal) * avg / float64(s.opts.Workers) / 1e9
	sec := int(est) + 1
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// Job looks up a job by ID.
func (s *Scheduler) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel cancels a job: a queued job is removed from its tenant's
// queue and marked cancelled; a running job is flagged and ends
// cancelled when its executor returns. Returns false for an unknown
// ID.
func (s *Scheduler) Cancel(id string) bool {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return false
	}
	if t, tok := s.tenants[j.Tenant]; tok {
		for i, q := range t.queue {
			if q == j {
				t.queue = append(t.queue[:i], t.queue[i+1:]...)
				j.setState(StateCancelled, "", perf.Now())
				t.cancelled++
				s.retainLocked(j)
				break
			}
		}
	}
	s.mu.Unlock()
	// Flag the job in all cases: for a running job this is the signal
	// the executor polls; for an already-removed one it is a no-op.
	j.cancel()
	return true
}

// retainLocked enrols a now-terminal job in the retention FIFO and
// evicts the oldest entries beyond maxRetained.
func (s *Scheduler) retainLocked(j *Job) {
	s.terminalFIFO = append(s.terminalFIFO, j.ID)
	for len(s.terminalFIFO) > maxRetained {
		old := s.terminalFIFO[0]
		s.terminalFIFO = s.terminalFIFO[1:]
		delete(s.jobs, old)
		if s.opts.OnEvict != nil {
			s.opts.OnEvict(old)
		}
	}
}

// worker is one dispatch loop: block until a job is pickable, run it,
// finish it, repeat until Close.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		j := s.next()
		if j == nil {
			return
		}
		state, errMsg := s.runGuarded(j)
		if !state.Terminal() {
			state, errMsg = StateFailed, fmt.Sprintf("serve: executor returned non-terminal state %q", state)
		}
		s.finish(j, state, errMsg)
	}
}

// runGuarded runs the executor with a panic barrier: an executor
// panic fails the one job, never the server.
func (s *Scheduler) runGuarded(j *Job) (state State, errMsg string) {
	defer func() {
		if r := recover(); r != nil {
			state, errMsg = StateFailed, fmt.Sprintf("serve: executor panicked: %v", r)
		}
	}()
	return s.opts.Run(j)
}

// next blocks until a job can be dispatched (or the scheduler closes,
// returning nil). The picked job transitions to running before the
// lock is released.
func (s *Scheduler) next() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return nil
		}
		if j := s.pickLocked(); j != nil {
			t := s.tenants[j.Tenant]
			t.running++
			s.runningTotal++
			now := perf.Now()
			j.setState(StateRunning, "", now)
			t.queueWaitNs.Observe(float64(now - j.submittedNs))
			return j
		}
		s.cond.Wait()
	}
}

// pickLocked dispatches round-robin: the first tenant after the cursor
// in name order that has queued work gives up its FIFO head and
// becomes the cursor. Two backlogged tenants therefore alternate
// strictly, and a tenant with work waits at most one pick per other
// tenant (pinned by TestSchedulerRoundRobin and
// TestSchedulerNoStarvation).
func (s *Scheduler) pickLocked() *Job {
	start := sort.Search(len(s.order), func(i int) bool { return s.order[i] > s.cursor })
	for i := range s.order {
		t := s.tenants[s.order[(start+i)%len(s.order)]]
		if len(t.queue) > 0 {
			s.cursor = t.name
			j := t.queue[0]
			t.queue = t.queue[1:]
			return j
		}
	}
	return nil
}

// finish records a worker's terminal transition and its tallies under
// one hold of s.mu, so whoever the transition wakes reads the tallies
// too.
func (s *Scheduler) finish(j *Job, state State, errMsg string) {
	now := perf.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	j.setState(state, errMsg, now)
	t := s.tenants[j.Tenant]
	t.running--
	s.runningTotal--
	// The job may have gone terminal earlier (queued-cancel race); read
	// back what actually stuck.
	switch j.State() {
	case StateDone:
		t.completed++
	case StateFailed:
		t.failed++
	case StateCancelled:
		t.cancelled++
	case StateCheckpointed:
		t.checkpointed++
	}
	if serviceNs := now - j.startedNs; serviceNs > 0 && j.startedNs > 0 {
		t.serviceNs.Observe(float64(serviceNs))
		const alpha = 0.1
		if s.avgServiceNs == 0 {
			s.avgServiceNs = float64(serviceNs)
		} else {
			s.avgServiceNs = (1-alpha)*s.avgServiceNs + alpha*float64(serviceNs)
		}
	}
	s.retainLocked(j)
	s.cond.Broadcast()
}

// Draining reports whether a drain has started.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully winds the scheduler down: new submissions are
// refused, every queued job is rejected carrying its resubmission
// handle, and every running job is asked to checkpoint at its next
// tick boundary. Drain returns when all running jobs have reached a
// terminal state or ctx expires; either way no accepted job is lost —
// each is done, failed, cancelled, checkpointed, or rejected with its
// original request.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.rejectQueuedLocked()
	// Ask every running job to checkpoint. Job IDs are sorted so the
	// map iteration cannot leak ordering into behaviour.
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		j := s.jobs[id]
		if j.State() == StateRunning {
			j.RequestDrainCheckpoint()
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.mu.Lock()
		for s.runningTotal > 0 {
			s.cond.Wait()
		}
		s.mu.Unlock()
		close(done)
	}()
	//rebound:nondet drain completion races ctx expiry by design; job state is wall-clock telemetry, not simulation state
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// rejectQueuedLocked ends every queued job rejected, carrying its
// resubmission handle, and empties the queues.
func (s *Scheduler) rejectQueuedLocked() {
	now := perf.Now()
	for _, name := range s.order {
		t := s.tenants[name]
		for _, j := range t.queue {
			j.setState(StateRejected, "", now)
			t.drainRejected++
			s.retainLocked(j)
		}
		t.queue = nil
	}
}

// Close stops the worker pool and waits for workers to exit. Queued
// jobs are rejected with their resubmission handles, as Drain rejects
// them, and running jobs are cancelled, so every job is terminal once
// Close returns and no long poll is left hanging. Close does not drain
// — call Drain first for a graceful shutdown.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.rejectQueuedLocked()
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var running []*Job
	for _, id := range ids {
		if j := s.jobs[id]; j.State() == StateRunning {
			running = append(running, j)
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, j := range running {
		j.cancel()
	}
	s.wg.Wait()
}
