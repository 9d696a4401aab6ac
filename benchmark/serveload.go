package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	rr "roborebound"
	"roborebound/internal/faultinject"
	"roborebound/internal/obs/perf"
	"roborebound/internal/prng"
	"roborebound/internal/serve"
)

const (
	serveWorkers = 2
	// closedClients is the closed loop's client count. With the open
	// loop's submitter and collector it is also the most load-generating
	// goroutines and connections the benchmark ever runs: the box has
	// two cores.
	closedClients = 2
	// jobCycle is how many distinct tiny jobs the load cycles through;
	// job i runs seed+i%jobCycle, so every result can be checked against
	// a RunJobDirect document computed once during set-up.
	jobCycle = 64
	// serveSegments is how many closed-loop and open-loop segments the
	// untraced window alternates through. Interference on a shared box
	// comes in bursts of seconds; spreading both phases over the whole
	// window and taking medians over the segments keeps one burst from
	// owning either number.
	serveSegments = 4
	// sloNs is the open loop's latency limit, from a job's due time.
	sloNs = 50e6
	// sloShare of the jobs sent must meet it, and the backlog left at
	// the end of the schedule must drain within drainLimitNs.
	sloShare     = 0.99
	drainLimitNs = 1e9
	// tinyN x tinyDurationSec x ticksPerSecond robot-ticks per job.
	tinyN           = 3
	tinyDurationSec = 1
)

// openRates are the fixed arrival rates of the open loop, jobs per
// second. The untraced run measures latency at the middle one.
var openRates = []float64{100, 200, 400}

const headlineRate = 200

// jobWant is what job i must return: RunJobDirect's bytes.
type jobWant struct {
	req     *serve.JobRequest
	result  []byte
	metrics []byte
}

// directJob runs req without HTTP, scheduler or store and keeps the
// bytes the served job must reproduce.
func directJob(req *serve.JobRequest) (jobWant, error) {
	out, err := serve.RunJobDirect(req, nil)
	if err != nil {
		return jobWant{}, err
	}
	want := jobWant{req: req, result: out.Result}
	for _, a := range out.Artifacts {
		if a.Name == "metrics.json" {
			want.metrics = a.Data
		}
	}
	return want, nil
}

// serveLoad drives an in-process job server over loopback HTTP:
// serve_tiny_jobs.
type serveLoad struct {
	seed  uint64
	jobs  []jobWant
	srv   *serve.Server
	hs    *http.Server
	done  chan struct{} // closed when hs.Serve returns
	base  string
	conns []*http.Transport
	// One connection each: the closed loop's clients, and the open
	// loop's submitter and collector.
	closed               []*serve.Client
	submitter, collector *serve.Client
}

func tinyCell(seed uint64) rr.ChaosConfig {
	return rr.ChaosConfig{Profile: faultinject.ProfileNone, Seed: seed, N: tinyN, DurationSec: tinyDurationSec}
}

func tinyJob(seed uint64) *serve.JobRequest {
	return &serve.JobRequest{
		Version:     serve.RequestVersion,
		Kind:        serve.KindChaos,
		Profile:     string(faultinject.ProfileNone),
		Seed:        seed,
		N:           tinyN,
		DurationSec: tinyDurationSec,
	}
}

const tinyRobotTicks = tinyN * tinyDurationSec * ticksPerSecond

// setup computes every job's expected bytes, starts the server on a
// loopback listener and runs one cycle of jobs through it.
func (l *serveLoad) setup(r *run) error {
	for i := 0; i < jobCycle; i++ {
		want, err := directJob(tinyJob(l.seed + uint64(i)))
		if err != nil {
			return fmt.Errorf("direct job %d: %w", i, err)
		}
		l.jobs = append(l.jobs, want)
	}
	if r.pinned() {
		g, err := loadGolden()
		if err != nil {
			return err
		}
		if got := digestBytes(l.jobs[0].result, l.jobs[0].metrics); got != g.JobSHA256 {
			r.op("direct job 0", []string{fmt.Sprintf("result digest %.12s, want golden %.12s", got, g.JobSHA256)})
		}
	}

	srv, err := serve.NewServer(serve.ServerOptions{Workers: serveWorkers})
	if err != nil {
		return fmt.Errorf("start server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return fmt.Errorf("loopback listener: %w", err)
	}
	l.srv = srv
	l.hs = &http.Server{Handler: srv.Handler()}
	l.done = make(chan struct{})
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // returns ErrServerClosed on close()
	}()
	l.base = "http://" + ln.Addr().String()

	for k := 0; k < closedClients; k++ {
		l.closed = append(l.closed, l.client())
	}
	l.submitter, l.collector = l.client(), l.client()
	for i := 0; i < jobCycle; i++ {
		if o := l.job(nil, 0, l.closed[i%closedClients], i); len(o.why) > 0 {
			return fmt.Errorf("warm-up job %d: %v", i, o.why)
		}
	}
	return nil
}

func (l *serveLoad) close() {
	if l.hs != nil {
		_ = l.hs.Close() // in-flight requests are over by now
		<-l.done
	}
	if l.srv != nil {
		l.srv.Close()
	}
	for _, t := range l.conns {
		t.CloseIdleConnections()
	}
}

// client returns a client that owns one connection.
func (l *serveLoad) client() *serve.Client {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	l.conns = append(l.conns, t)
	return &serve.Client{Base: l.base, Tenant: "bench", HTTP: &http.Client{Transport: t}}
}

// jobTimeout turns a job that hangs into a counted failure. A tiny job
// takes about a millisecond.
const jobTimeout = 30 * time.Second

func jobContext() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), jobTimeout)
}

// jobOutcome is one job as its client saw it.
type jobOutcome struct {
	why                       []string // non-empty: the job failed
	refused                   bool     // 429 or 503 at submit
	submitNs, waitNs, fetchNs float64
	queueNs, runNs            float64
}

// verify checks a terminal status against RunJobDirect's bytes.
func (l *serveLoad) verify(i int, st serve.Status) []string {
	switch {
	case st.State != serve.StateDone:
		return []string{fmt.Sprintf("ended %q: %s", st.State, st.Error)}
	case !bytes.Equal(st.Result, l.jobs[i%jobCycle].result):
		return []string{"result document differs from RunJobDirect"}
	}
	return nil
}

func submitFailure(err error) (why string, refused bool) {
	var se *serve.StatusError
	if errors.As(err, &se) && (se.Code == http.StatusTooManyRequests || se.Code == http.StatusServiceUnavailable) {
		return fmt.Sprintf("refused: HTTP %d", se.Code), true
	}
	return "submit: " + err.Error(), false
}

// job runs job i to the end on one client, the closed loop's way:
// submit, wait on the event stream, fetch the metrics artifact. It
// records the spans job -> {submit, wait, fetch}.
func (l *serveLoad) job(spans *spanLog, parent int, c *serve.Client, i int) jobOutcome {
	var o jobOutcome
	ctx, cancel := jobContext()
	defer cancel()
	t0 := perf.Now()
	st, err := c.Submit(ctx, l.jobs[i%jobCycle].req)
	t1 := perf.Now()
	o.submitNs = float64(t1 - t0)
	if err != nil {
		var why string
		why, o.refused = submitFailure(err)
		o.why = []string{why}
		return o
	}
	st, err = c.Wait(ctx, st.ID)
	t2 := perf.Now()
	o.waitNs = float64(t2 - t1)
	if err != nil {
		o.why = []string{"wait: " + err.Error()}
		return o
	}
	artifact, err := c.Artifact(ctx, st.ID, "metrics.json")
	t3 := perf.Now()
	o.fetchNs = float64(t3 - t2)
	if err != nil {
		o.why = []string{"fetch: " + err.Error()}
		return o
	}
	o.queueNs, o.runNs = float64(st.QueueNs), float64(st.RunNs)
	o.why = l.verify(i, st)
	if !bytes.Equal(artifact, l.jobs[i%jobCycle].metrics) {
		o.why = append(o.why, "metrics.json differs from RunJobDirect")
	}

	group := fmt.Sprintf("job-%d", i)
	job := spans.add(parent, group, "job", t0, t3)
	spans.add(job, group, "submit", t0, t1)
	spans.add(job, group, "wait", t1, t2)
	spans.add(job, group, "fetch", t2, t3)
	return o
}

// closedPhase is the outcome of closed-loop segments.
type closedPhase struct {
	jobs     []jobOutcome
	latNs    []float64 // submit to artifact fetched, completed jobs
	jobsPerS []float64 // completed jobs per second, one per segment
	u        usage
}

// closedLoop keeps closedClients clients busy for durNs: each sends
// its next job only after the previous one's artifact arrived, so a
// slower server receives less load. The segment is added to ph.
func (l *serveLoad) closedLoop(r *run, ph *closedPhase, parent int, durNs int64) {
	perClient := make([][]jobOutcome, closedClients)
	first := len(ph.jobs)
	w := openWindow()
	start := perf.Now()
	var wg sync.WaitGroup
	for k := 0; k < closedClients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for n := 0; perf.Now()-start < durNs; n++ {
				i := first + n*closedClients + k
				o := l.job(r.spans, parent, l.closed[k], i)
				perClient[k] = append(perClient[k], o)
			}
		}(k)
	}
	wg.Wait()
	elapsed := perf.Now() - start
	ph.u.add(w.close())

	done := 0
	for k := range perClient {
		ph.jobs = append(ph.jobs, perClient[k]...)
		for _, o := range perClient[k] {
			if len(o.why) == 0 {
				done++
				ph.latNs = append(ph.latNs, o.submitNs+o.waitNs+o.fetchNs)
			}
		}
	}
	ph.jobsPerS = append(ph.jobsPerS, float64(done)/(float64(elapsed)/1e9))
}

// poissonSchedule returns the due times, in nanoseconds from the
// start of the phase, of Poisson arrivals at rate per second over
// durNs. The same seed and rate give the same schedule.
func poissonSchedule(seed uint64, rate float64, durNs int64) []int64 {
	rng := prng.New(seed ^ math.Float64bits(rate))
	var due []int64
	for t := 0.0; ; {
		t += -math.Log(1-rng.Float64()) / rate * 1e9
		if t >= float64(durNs) {
			return due
		}
		due = append(due, int64(t))
	}
}

// spinNs is how long before a due time sleepUntil stops sleeping and
// yields in a loop instead: timers on a small VM fire a few hundred
// microseconds late, which would otherwise be charged to every job.
const spinNs = 600e3

// sleepUntil blocks until the perf clock reads at least abs.
func sleepUntil(abs int64) {
	if d := abs - spinNs - perf.Now(); d > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(d))
		<-ctx.Done()
		cancel()
	}
	for perf.Now() < abs {
		runtime.Gosched()
	}
}

// openPhase is the outcome of one open-loop rate.
type openPhase struct {
	sent    int
	jobs    []jobOutcome
	latNs   []float64 // due time to result observed, completed jobs
	lateNs  []float64 // how late the generator submitted, every job sent
	inLimit int       // completed within sloNs of their due time
	drainNs int64     // schedule end to the last result observed
}

func (p *openPhase) meetsSLO() bool {
	return p.sent > 0 && float64(p.inLimit) >= sloShare*float64(p.sent) && float64(p.drainNs) <= drainLimitNs
}

// openLoop submits jobs on a seeded Poisson schedule whatever the
// server's state, so its queue can grow. One submitter connection
// follows the schedule; one collector connection waits on the job IDs
// in submit order. Latency runs from the time a job was due, which
// charges a stall to every job it delays.
func (l *serveLoad) openLoop(r *run, parent int, seed uint64, rate float64, durNs int64, firstJob int) openPhase {
	var ph openPhase
	schedule := poissonSchedule(seed, rate, durNs)
	ph.sent = len(schedule)

	type pending struct {
		i         int
		id        string
		dueAt, t0 int64
		submitNs  float64
	}
	ids := make(chan pending, len(schedule)) // one send per scheduled job
	lateNs := make([]float64, 0, len(schedule))
	var rejected []jobOutcome

	start := perf.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(ids)
		for k, due := range schedule {
			i := firstJob + k
			sleepUntil(start + due)
			t0 := perf.Now()
			lateNs = append(lateNs, float64(t0-(start+due)))
			ctx, cancel := jobContext()
			st, err := l.submitter.Submit(ctx, l.jobs[i%jobCycle].req)
			cancel()
			t1 := perf.Now()
			if err != nil {
				why, refused := submitFailure(err)
				rejected = append(rejected, jobOutcome{why: []string{why}, refused: refused})
				continue
			}
			ids <- pending{i: i, id: st.ID, dueAt: start + due, t0: t0, submitNs: float64(t1 - t0)}
		}
	}()

	lastDone := start
	for p := range ids {
		t1 := perf.Now()
		ctx, cancel := jobContext()
		st, err := l.collector.Wait(ctx, p.id)
		cancel()
		t2 := perf.Now()
		o := jobOutcome{submitNs: p.submitNs, waitNs: float64(t2 - t1)}
		if err != nil {
			o.why = []string{"wait: " + err.Error()}
		} else {
			o.queueNs, o.runNs = float64(st.QueueNs), float64(st.RunNs)
			o.why = l.verify(p.i, st)
		}
		if len(o.why) == 0 {
			lat := float64(t2 - p.dueAt)
			ph.latNs = append(ph.latNs, lat)
			if lat <= sloNs {
				ph.inLimit++
			}
			group := fmt.Sprintf("job-%d", p.i)
			job := r.spans.add(parent, group, "job", p.dueAt, t2)
			r.spans.add(job, group, "submit", p.t0, p.t0+int64(p.submitNs))
			r.spans.add(job, group, "wait", t1, t2)
		}
		ph.jobs = append(ph.jobs, o)
		lastDone = t2
	}
	wg.Wait()
	ph.jobs = append(ph.jobs, rejected...)
	ph.lateNs = lateNs
	ph.drainNs = max(lastDone-(start+durNs), 0)
	return ph
}

// quickPhaseNs is every serve phase's length under -quick.
const quickPhaseNs = 100e6

// phaseNs is the share num/den of a window of budgetNs.
func phaseNs(r *run, budgetNs, num, den int64) int64 {
	if r.cfg.quick {
		return quickPhaseNs
	}
	return budgetNs * num / den
}

// score counts a phase's jobs as operations.
func score(r *run, phase string, jobs []jobOutcome) (refused int) {
	for k := range jobs {
		r.op(fmt.Sprintf("%s job %d", phase, k), jobs[k].why)
		if jobs[k].refused {
			refused++
		}
	}
	return refused
}

// measure alternates closed-loop segments and open-loop segments at
// headlineRate; a ninth of the window is left for backlogs to drain.
func (l *serveLoad) measure(r *run) error {
	segments := serveSegments
	if r.cfg.quick {
		segments = 1
	}
	segNs := phaseNs(r, r.budgetNs(), 1, 2*serveSegments+1)
	var closed closedPhase
	var openLat, late []float64
	next := 0
	for seg := 0; seg < segments; seg++ {
		l.closedLoop(r, &closed, 0, segNs)
		open := l.openLoop(r, 0, l.seed+uint64(seg), headlineRate, segNs, len(closed.jobs)+next)
		score(r, "open", open.jobs)
		next += open.sent
		openLat = append(openLat, open.latNs...)
		late = append(late, open.lateNs...)
	}
	score(r, "closed", closed.jobs)
	if len(closed.latNs) == 0 || len(openLat) == 0 {
		return errors.New("a phase completed no job")
	}

	done := float64(len(closed.latNs))
	r.m.set("robot_ticks_per_s", median(closed.jobsPerS)*tinyRobotTicks)
	r.m.set("op_p50_ms", ms(median(openLat)))
	r.m.set("cpu_us_per_robot_tick", closed.u.cpuS*1e6/(done*tinyRobotTicks))
	r.m.set("allocs_per_robot_tick", float64(closed.u.mallocs)/(done*tinyRobotTicks))
	r.m.set("alloc_bytes_per_robot_tick", float64(closed.u.bytes)/(done*tinyRobotTicks))
	r.samples["closed_jobs"] = len(closed.latNs)
	r.samples["open_jobs"] = len(openLat)
	r.samples["gen_late_p99_us"] = int(us(quantile(sortedCopy(late), 0.99)))
	r.describe("closed-loop job", closed.latNs)
	r.describe(fmt.Sprintf("open-loop job at %d/s from its due time", headlineRate), openLat)
	r.describe("generator lateness", late)
	return nil
}

// traced runs a short closed loop, every open-loop rate, the tiny
// job's cell directly with the facade's hooks on, and the drills.
func (l *serveLoad) traced(r *run) error {
	root := r.spans.begin(0, "serve_tiny_jobs", "workload")
	budget := r.budgetNs() - drillsNs(r)
	phase := r.spans.begin(root, "closed", "closed_loop")
	var closed closedPhase
	l.closedLoop(r, &closed, phase, phaseNs(r, budget, 3, 20))
	r.spans.end(phase)
	refused := score(r, "closed", closed.jobs)
	all := append([]jobOutcome(nil), closed.jobs...)
	next := len(closed.jobs)

	closedDist := sortedCopy(closed.latNs)
	r.describe("closed-loop job", closed.latNs)
	r.m.set("serve.jobs_per_s", median(closed.jobsPerS))
	r.m.set("serve.allocs_per_job", ratio(float64(closed.u.mallocs), float64(len(closed.latNs))))
	r.m.set("serve.lat_p50_ms.closed", ms(quantile(closedDist, 0.5)))
	r.m.set("serve.lat_p99_ms.closed", ms(quantile(closedDist, 0.99)))

	sloRate := 0.0
	var late []float64
	for _, rate := range openRates {
		name := fmt.Sprintf("r%.0f", rate)
		phase := r.spans.begin(root, name, "open_loop")
		open := l.openLoop(r, phase, l.seed, rate, phaseNs(r, budget, 5, 20), next)
		r.spans.end(phase)
		refused += score(r, "open "+name, open.jobs)
		all = append(all, open.jobs...)
		next += open.sent
		late = append(late, open.lateNs...)
		d := sortedCopy(open.latNs)
		r.m.set("serve.lat_p50_ms."+name, ms(quantile(d, 0.5)))
		r.m.set("serve.lat_p99_ms."+name, ms(quantile(d, 0.99)))
		r.samples["open_jobs_"+name] = len(d)
		r.describe(fmt.Sprintf("open-loop job at %.0f/s from its due time", rate), open.latNs)
		if open.meetsSLO() {
			sloRate = rate
		}
	}
	r.m.set("serve.slo_rate", sloRate)
	r.m.set("serve.gen_late_p99_ms", ms(quantile(sortedCopy(late), 0.99)))

	var queue, runNs, submit, wait, fetch []float64
	failed := 0
	for _, o := range all {
		if len(o.why) > 0 {
			failed++
			continue
		}
		queue, runNs = append(queue, o.queueNs), append(runNs, o.runNs)
		submit, wait = append(submit, o.submitNs), append(wait, o.waitNs)
		if o.fetchNs > 0 {
			fetch = append(fetch, o.fetchNs)
		}
	}
	queue, runNs = sortedCopy(queue), sortedCopy(runNs)
	r.m.set("serve.queue_p50_ms", ms(quantile(queue, 0.5)))
	r.m.set("serve.queue_p99_ms", ms(quantile(queue, 0.99)))
	r.m.set("serve.run_p50_ms", ms(quantile(runNs, 0.5)))
	r.m.set("serve.run_p99_ms", ms(quantile(runNs, 0.99)))
	r.m.set("serve.submit_p50_ms", ms(median(submit)))
	r.m.set("serve.wait_p50_ms", ms(median(wait)))
	r.m.set("serve.fetch_p50_ms", ms(median(fetch)))
	r.m.set("serve.jobs_attempted", float64(len(all)))
	r.m.set("serve.jobs_failed", float64(failed))
	r.m.set("serve.jobs_refused", float64(refused))
	r.samples["closed_jobs"] = len(closed.latNs)

	// The tiny job's cell straight through the facade, traced and
	// untraced in turn, so this workload too reports what its simulation
	// share looks like layer by layer.
	pairs := 50
	if r.cfg.quick {
		pairs = 3
	}
	direct := &cellLoad{name: "serve_tiny_jobs", cfg: tinyCell(l.seed)}
	direct.tracedPairs(r, root, func(n int, _ float64) bool { return n < pairs })

	runDrills(r, root, tinyN, 20)
	r.m.set("serve.overhead_ms", r.m["serve.lat_p50_ms.closed"]-r.m["serve.direct_job_ms"])
	r.spans.end(root)
	return nil
}
