package serve

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"roborebound/internal/prng"
)

// stubExec is a controllable executor for scheduler tests: each job
// optionally blocks until released, cancelled, or asked to
// drain-checkpoint, and the executor records every dispatch.
type stubExec struct {
	mu       sync.Mutex
	order    []string       // job IDs in dispatch order
	runs     map[string]int // dispatch count per job ID (double-run detector)
	release  chan struct{}  // closed to let blocked jobs finish
	blocking bool
}

func newStubExec(blocking bool) *stubExec {
	return &stubExec{
		runs:     make(map[string]int),
		release:  make(chan struct{}),
		blocking: blocking,
	}
}

func (e *stubExec) Run(j *Job) (State, string) {
	e.mu.Lock()
	e.order = append(e.order, j.ID)
	e.runs[j.ID]++
	e.mu.Unlock()
	if !e.blocking {
		return StateDone, ""
	}
	for {
		select {
		case <-e.release:
			return StateDone, ""
		case <-time.After(100 * time.Microsecond):
			if j.Cancelled() {
				return StateCancelled, ""
			}
			// Not InterruptRequested: a cancel landing just after the
			// check above would read as a drain.
			if j.drainCheckpoint.Load() {
				return StateCheckpointed, ""
			}
		}
	}
}

func (e *stubExec) dispatched() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.order...)
}

func submitN(t *testing.T, s *Scheduler, tenant string, n int) []*Job {
	t.Helper()
	req := validChaosRequest()
	body, _ := req.Encode()
	jobs := make([]*Job, 0, n)
	for i := 0; i < n; i++ {
		j, err := s.Submit(tenant, req, body)
		if err != nil {
			t.Fatalf("submit %s #%d: %v", tenant, i, err)
		}
		jobs = append(jobs, j)
	}
	return jobs
}

func waitTerminal(t *testing.T, jobs []*Job) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for _, j := range jobs {
		for !j.State().Terminal() {
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %q", j.ID, j.State())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func waitRunning(t *testing.T, jobs []*Job, want int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		running := 0
		for _, j := range jobs {
			if j.State() == StateRunning {
				running++
			}
		}
		if running == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("running = %d, want %d", running, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// jobSeq extracts the scheduler sequence number from a job ID of the
// form "<tenant>-<seq>".
func jobSeq(t *testing.T, id string) (tenant string, seq int) {
	t.Helper()
	i := strings.LastIndexByte(id, '-')
	if i < 0 {
		t.Fatalf("malformed job id %q", id)
	}
	n, err := strconv.Atoi(id[i+1:])
	if err != nil {
		t.Fatalf("malformed job id %q: %v", id, err)
	}
	return id[:i], n
}

// TestSchedulerRoundRobin pins the dispatch contract: with one worker
// and both queues backlogged, the two tenants alternate strictly, and
// each tenant's jobs go FIFO.
func TestSchedulerRoundRobin(t *testing.T) {
	exec := newStubExec(true)
	s := NewScheduler(SchedOptions{Workers: 1, Run: exec.Run})
	defer s.Close()

	// Stall the single worker with a sacrificial job so both queues
	// fill before any picking happens.
	stall := submitN(t, s, "light", 1)
	waitRunning(t, stall, 1)
	heavy := submitN(t, s, "heavy", 12)
	light := submitN(t, s, "light", 6)
	close(exec.release)
	waitTerminal(t, append(append([]*Job{}, heavy...), light...))

	order := exec.dispatched()[1:] // drop the stall job
	// FIFO within tenant: sequence numbers per tenant strictly
	// increase along the dispatch order.
	last := map[string]int{}
	for _, id := range order {
		tenant, seq := jobSeq(t, id)
		if seq <= last[tenant] {
			t.Fatalf("tenant %s dispatched out of FIFO order: %v", tenant, order)
		}
		last[tenant] = seq
	}
	// Strict alternation while both are backlogged: the first 12
	// dispatches are heavy, light, heavy, … (the stall job left the
	// cursor on light), then heavy drains its remaining 6 alone.
	for i, id := range order {
		tenant, _ := jobSeq(t, id)
		want := "heavy"
		if i < 12 && i%2 == 1 {
			want = "light"
		}
		if tenant != want {
			t.Fatalf("dispatch %d is %s, want %s (order %v)", i, tenant, want, order)
		}
	}
}

// stepExec runs one job at a time in lockstep with the test: it
// reports each dispatch on started and returns when told on finish.
type stepExec struct {
	started chan *Job
	finish  chan struct{}
}

func (e *stepExec) Run(j *Job) (State, string) {
	e.started <- j
	<-e.finish
	return StateDone, ""
}

// TestSchedulerNoStarvation drives one worker in lockstep through
// randomized submit/cancel churn across three tenants and checks every
// pick: it is the FIFO head of its tenant, and no tenant with queued
// work waits through more than one pick per other tenant.
func TestSchedulerNoStarvation(t *testing.T) {
	rng := prng.New(0x5EED)
	exec := &stepExec{started: make(chan *Job), finish: make(chan struct{})}
	s := NewScheduler(SchedOptions{Workers: 1, Run: exec.Run})
	defer s.Close()

	req := validChaosRequest()
	body, _ := req.Encode()
	tenants := []string{"a", "b", "c"}
	queued := map[string][]*Job{} // the test's model of each tenant's queue
	submit := func(tenant string) {
		j, err := s.Submit(tenant, req, body)
		if err != nil {
			t.Fatalf("submit %s: %v", tenant, err)
		}
		queued[tenant] = append(queued[tenant], j)
	}
	waits := map[string]int{}

	submit("a")
	for step := 0; step < 400; step++ {
		j := <-exec.started
		// The model is exact: nothing changed between the last finish
		// and this pick.
		if q := queued[j.Tenant]; len(q) == 0 || q[0] != j {
			t.Fatalf("step %d: picked %s, not the FIFO head of tenant %s", step, j.ID, j.Tenant)
		}
		queued[j.Tenant] = queued[j.Tenant][1:]
		for _, tn := range tenants {
			switch {
			case tn == j.Tenant:
				waits[tn] = 0
			case len(queued[tn]) > 0:
				if waits[tn]++; waits[tn] > len(tenants)-1 {
					t.Fatalf("step %d: tenant %s waited %d picks with work queued", step, tn, waits[tn])
				}
			default:
				waits[tn] = 0
			}
		}

		// Churn while the worker is busy: a few submissions, sometimes
		// a cancel of a queued job.
		for n := rng.Intn(3); n > 0; n-- {
			if tn := tenants[rng.Intn(len(tenants))]; len(queued[tn]) < maxQueued {
				submit(tn)
			}
		}
		if tn := tenants[rng.Intn(len(tenants))]; rng.Intn(4) == 0 && len(queued[tn]) > 0 {
			i := rng.Intn(len(queued[tn]))
			s.Cancel(queued[tn][i].ID)
			queued[tn] = append(queued[tn][:i], queued[tn][i+1:]...)
		}
		if len(queued["a"])+len(queued["b"])+len(queued["c"]) == 0 {
			submit(tenants[rng.Intn(len(tenants))])
		}
		if step == 399 {
			// Leave nothing to dispatch after the last step.
			for _, tn := range tenants {
				for _, q := range queued[tn] {
					s.Cancel(q.ID)
				}
			}
		}
		exec.finish <- struct{}{}
	}
}

// TestSchedulerQuotaBounds pins the per-tenant queue bound: the 65th
// queued job is refused with an OverloadError carrying a sane
// Retry-After, and the other tenants are unaffected.
func TestSchedulerQuotaBounds(t *testing.T) {
	exec := newStubExec(true)
	s := NewScheduler(SchedOptions{Workers: 1, Run: exec.Run})
	defer s.Close()

	// Hold the only worker so the rest of the submissions queue.
	running := submitN(t, s, "tenant", 1)
	waitRunning(t, running, 1)
	queued := submitN(t, s, "tenant", maxQueued)

	req := validChaosRequest()
	body, _ := req.Encode()
	_, err := s.Submit("tenant", req, body)
	o, ok := err.(*OverloadError)
	if !ok {
		t.Fatalf("submit %d beyond the bound: err = %v, want *OverloadError", maxQueued+1, err)
	}
	if o.RetryAfterSec < 1 || o.RetryAfterSec > 60 {
		t.Fatalf("Retry-After %d out of [1, 60]", o.RetryAfterSec)
	}
	if o.Queued != maxQueued {
		t.Fatalf("OverloadError.Queued = %d, want %d", o.Queued, maxQueued)
	}
	other := submitN(t, s, "other", 1)
	close(exec.release)
	waitTerminal(t, append(append(running, queued...), other...))
}

// TestSchedulerDrainUnderLoad: with 100 jobs in flight (8 running,
// 92 queued), Drain must leave every accepted job in a terminal
// state — running jobs checkpoint, queued jobs are rejected with
// their resubmission handle — with nothing lost and nothing run
// twice.
func TestSchedulerDrainUnderLoad(t *testing.T) {
	exec := newStubExec(true)
	s := NewScheduler(SchedOptions{Workers: 8, Run: exec.Run})
	defer s.Close()

	var jobs []*Job
	for tnt := 0; tnt < 4; tnt++ {
		jobs = append(jobs, submitN(t, s, fmt.Sprintf("tenant%d", tnt), 25)...)
	}
	waitRunning(t, jobs, 8)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	counts := map[State]int{}
	for _, j := range jobs {
		st := j.Status()
		if !st.State.Terminal() {
			t.Fatalf("job %s not terminal after drain: %q", j.ID, st.State)
		}
		counts[st.State]++
		if (st.State == StateRejected || st.State == StateCheckpointed) && len(st.Resubmit) == 0 {
			t.Errorf("%s job %s has no resubmission handle", st.State, j.ID)
		}
	}
	if counts[StateCheckpointed] != 8 {
		t.Errorf("running jobs checkpointed = %d, want 8 (counts %v)", counts[StateCheckpointed], counts)
	}
	if counts[StateRejected] != 92 {
		t.Errorf("queued jobs rejected = %d, want 92 (counts %v)", counts[StateRejected], counts)
	}
	for id, n := range exec.runs {
		if n > 1 {
			t.Errorf("job %s ran %d times", id, n)
		}
	}
	// Post-drain submissions are refused.
	req := validChaosRequest()
	body, _ := req.Encode()
	if _, err := s.Submit("tenant0", req, body); err != ErrDraining {
		t.Errorf("post-drain submit: %v, want ErrDraining", err)
	}
}

// TestSchedulerChurnProperty hammers the scheduler with randomized
// submit/cancel churn and checks the global invariants: every
// accepted job reaches exactly one terminal state, none runs twice,
// and the queue bound is never exceeded.
func TestSchedulerChurnProperty(t *testing.T) {
	rng := prng.New(0xC0FFEE)
	exec := newStubExec(false)
	s := NewScheduler(SchedOptions{Workers: 4, Run: exec.Run})
	defer s.Close()

	req := validChaosRequest()
	body, _ := req.Encode()
	tenants := []string{"a", "b", "c"}
	var accepted []*Job
	overloads := 0
	for op := 0; op < 600; op++ {
		switch rng.Intn(3) {
		case 0, 1: // submit
			tenant := tenants[rng.Intn(len(tenants))]
			j, err := s.Submit(tenant, req, body)
			if err != nil {
				o, ok := err.(*OverloadError)
				if !ok {
					t.Fatalf("op %d: %v", op, err)
				}
				if o.Queued > maxQueued {
					t.Fatalf("op %d: queue depth %d over bound %d", op, o.Queued, maxQueued)
				}
				overloads++
				continue
			}
			accepted = append(accepted, j)
		case 2: // cancel a random known job
			if len(accepted) > 0 {
				s.Cancel(accepted[rng.Intn(len(accepted))].ID)
			}
		}
	}
	waitTerminal(t, accepted)
	for id, n := range exec.runs {
		if n > 1 {
			t.Errorf("job %s ran %d times", id, n)
		}
	}
	done, cancelled := 0, 0
	for _, j := range accepted {
		switch j.State() {
		case StateDone:
			done++
		case StateCancelled:
			cancelled++
		default:
			t.Errorf("job %s ended %q", j.ID, j.State())
		}
	}
	if done == 0 {
		t.Error("churn completed no jobs")
	}
	t.Logf("churn: %d accepted (%d done, %d cancelled), %d overloads",
		len(accepted), done, cancelled, overloads)
}

// TestSchedulerRetention: terminal jobs beyond maxRetained are evicted
// oldest-first, with the eviction hook told each ID.
func TestSchedulerRetention(t *testing.T) {
	exec := newStubExec(false)
	var evictMu sync.Mutex
	var evicted []string
	s := NewScheduler(SchedOptions{
		Workers: 1,
		OnEvict: func(id string) {
			evictMu.Lock()
			evicted = append(evicted, id)
			evictMu.Unlock()
		},
		Run: exec.Run,
	})
	defer s.Close()
	// Submit in waves no deeper than the queue bound.
	const extra = 7
	var jobs []*Job
	for len(jobs) < maxRetained+extra {
		wave := submitN(t, s, "t", min(maxQueued, maxRetained+extra-len(jobs)))
		waitTerminal(t, wave)
		jobs = append(jobs, wave...)
	}

	// Retention runs inside finish() just after the terminal
	// transition; poll briefly for the final evictions to land.
	deadline := time.Now().Add(5 * time.Second)
	for {
		evictMu.Lock()
		n := len(evicted)
		evictMu.Unlock()
		if n >= extra || time.Now().After(deadline) {
			if n != extra {
				t.Fatalf("evicted %d jobs, want %d", n, extra)
			}
			break
		}
		time.Sleep(time.Millisecond)
	}
	evictMu.Lock()
	defer evictMu.Unlock()
	for i, id := range evicted {
		if id != jobs[i].ID {
			t.Fatalf("eviction %d was %s, want the oldest remaining, %s", i, id, jobs[i].ID)
		}
	}
	if _, ok := s.Job(jobs[0].ID); ok {
		t.Error("oldest job still queryable after eviction")
	}
	if _, ok := s.Job(jobs[len(jobs)-1].ID); !ok {
		t.Error("newest job evicted")
	}
}

// TestSchedulerTelemetryAllocatesNothing pins the per-job telemetry of
// a known tenant at zero allocations: its tallies are fields of its
// state, registered once, when the tenant first appears, and its
// histograms share one bounds slice.
func TestSchedulerTelemetryAllocatesNothing(t *testing.T) {
	s := NewScheduler(SchedOptions{Workers: 1, Run: newStubExec(false).Run})
	defer s.Close()
	got := testing.AllocsPerRun(100, func() {
		s.mu.Lock()
		tn := s.tenantLocked("acme")
		tn.submitted++
		tn.queueWaitNs.Observe(1e6)
		tn.completed++
		tn.serviceNs.Observe(2e6)
		s.mu.Unlock()
	})
	if got != 0 {
		t.Errorf("a known tenant's per-job telemetry makes %v allocations, want 0", got)
	}
}
