package serve

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestServer(t *testing.T, opts ServerOptions) (*Server, *httptest.Server, *Client) {
	t.Helper()
	s, err := NewServer(opts)
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts, &Client{Base: ts.URL, Tenant: "test"}
}

func TestServerSubmitWaitArtifacts(t *testing.T) {
	_, _, client := newTestServer(t, ServerOptions{Workers: 2})
	ctx := context.Background()

	req := validChaosRequest()
	req.Events = true
	st, err := client.Run(ctx, req)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if st.State != StateDone {
		t.Fatalf("state = %q (error %q), want done", st.State, st.Error)
	}
	if st.Tenant != "test" || st.Kind != KindChaos {
		t.Errorf("status tenant/kind = %q/%q", st.Tenant, st.Kind)
	}
	if len(st.Result) == 0 {
		t.Error("no result document")
	}
	if st.QueueNs < 0 || st.RunNs <= 0 {
		t.Errorf("timing telemetry queue=%d run=%d", st.QueueNs, st.RunNs)
	}

	arts, err := client.Artifacts(ctx, st.ID)
	if err != nil {
		t.Fatalf("artifacts: %v", err)
	}
	names := make([]string, len(arts))
	for i, a := range arts {
		names[i] = a.Name
	}
	if len(names) != 2 || names[0] != "events.ndjson" || names[1] != "metrics.json" {
		t.Fatalf("artifact names = %v, want [events.ndjson metrics.json]", names)
	}
	for _, a := range arts {
		raw, err := client.Artifact(ctx, st.ID, a.Name)
		if err != nil {
			t.Fatalf("artifact %s: %v", a.Name, err)
		}
		if sum := sha256.Sum256(raw); hex.EncodeToString(sum[:]) != a.SHA256 {
			t.Errorf("artifact %s: fetched bytes do not hash to the listed SHA-256", a.Name)
		}
		if int64(len(raw)) != a.Size {
			t.Errorf("artifact %s: size %d, listed %d", a.Name, len(raw), a.Size)
		}
	}
}

// TestServerOverload pins the backpressure contract over real HTTP:
// with the only worker busy, the 65th queued job of a tenant answers
// 429 with a Retry-After header.
func TestServerOverload(t *testing.T) {
	_, ts, client := newTestServer(t, ServerOptions{Workers: 1})
	ctx := context.Background()

	// A job costing most of a second holds the worker while the queue
	// fills, which takes milliseconds.
	long := validChaosRequest()
	long.N, long.DurationSec = 64, 60
	blocker, err := client.Submit(ctx, long)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		st, err := client.Status(ctx, blocker.ID)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("blocking job never started: %q", st.State)
		}
	}

	req := validChaosRequest()
	body, _ := req.Encode()
	overloads := 0
	ids := []string{blocker.ID}
	for i := 0; i < maxQueued+1; i++ {
		httpReq, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
		httpReq.Header.Set(TenantHeader, "test")
		resp, err := http.DefaultClient.Do(httpReq)
		if err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			var st Status
			json.NewDecoder(resp.Body).Decode(&st)
			ids = append(ids, st.ID)
		case http.StatusTooManyRequests:
			if ra, _ := strconv.Atoi(resp.Header.Get("Retry-After")); ra < 1 {
				t.Errorf("429 with Retry-After %q, want >= 1", resp.Header.Get("Retry-After"))
			}
			overloads++
		default:
			t.Fatalf("post %d: unexpected status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if overloads != 1 || len(ids) != maxQueued+1 {
		t.Fatalf("%d queued and %d refused, want %d and 1", len(ids)-1, overloads, maxQueued)
	}
	// Typed client surfaces the same as a StatusError.
	_, err = client.Submit(ctx, req)
	if se, ok := err.(*StatusError); !ok || se.Code != http.StatusTooManyRequests || se.RetryAfterSec < 1 {
		t.Errorf("typed overload error = %#v", err)
	}
	for _, id := range ids {
		client.Cancel(ctx, id)
	}
}

func TestServerDrainRejectsSubmissions(t *testing.T) {
	s, ts, client := newTestServer(t, ServerOptions{Workers: 1})
	ctx := context.Background()

	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	_, err := client.Submit(ctx, validChaosRequest())
	se, ok := err.(*StatusError)
	if !ok || se.Code != http.StatusServiceUnavailable || se.RetryAfterSec != 10 {
		t.Fatalf("post-drain submit error = %#v, want 503 with Retry-After 10", err)
	}

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer resp.Body.Close()
	var health struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}
	json.NewDecoder(resp.Body).Decode(&health)
	if health.Status != "ok" || !health.Draining {
		t.Errorf("healthz = %+v, want ok/draining", health)
	}
}

func TestServerNotFound(t *testing.T) {
	_, ts, _ := newTestServer(t, ServerOptions{Workers: 1})
	for _, path := range []string{
		"/v1/jobs/nope",
		"/v1/jobs/nope/events",
		"/v1/jobs/nope/artifacts",
		"/v1/jobs/nope/artifacts/metrics.json",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("get %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/nope", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown job = %d, want 404", resp.StatusCode)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	srv, ts, _ := newTestServer(t, ServerOptions{Workers: 1})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"garbage", "{{{", http.StatusBadRequest},
		{"unknown kind", `{"version":1,"kind":"nope"}`, http.StatusBadRequest},
		{"removed tick_shards", `{"version":1,"kind":"chaos","tick_shards":4}`, http.StatusBadRequest},
		{"removed reference_plane", `{"version":1,"kind":"chaos","reference_plane":true}`, http.StatusBadRequest},
		{"removed swarm kind", `{"version":1,"kind":"swarm","sizes":[24]}`, http.StatusBadRequest},
		{"snapshot tick beyond run", `{"version":1,"kind":"snapshot","duration_sec":4,"snapshot_at_tick":17}`, http.StatusBadRequest},
		{"inert mixed chaos", `{"version":1,"kind":"chaos","profile":"mixed","duration_sec":10}`, http.StatusBadRequest},
		{"inert loss trace", `{"version":1,"kind":"trace","profile":"loss","duration_sec":24}`, http.StatusBadRequest},
		{"oversized", `{"pad":"` + strings.Repeat("x", MaxRequestBytes) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		if strings.HasPrefix(tc.name, "inert") && !strings.Contains(string(msg), "duration_sec") {
			t.Errorf("%s: error %s does not name duration_sec", tc.name, msg)
		}
	}
	// A rejected body never reaches the scheduler: no tenant, no job.
	srv.sched.mu.Lock()
	defer srv.sched.mu.Unlock()
	if len(srv.sched.tenants) != 0 || len(srv.sched.jobs) != 0 {
		t.Errorf("rejected requests left scheduler state behind: %d tenants, %d jobs",
			len(srv.sched.tenants), len(srv.sched.jobs))
	}
}

// cancelRequests holds one small request per job kind for
// TestExecutorCancelStoresNothing; the resume pair's handle is filled
// in from the snapshot job.
var cancelRequests = map[string]*JobRequest{
	KindChaos:       {Profile: "none", N: 3, DurationSec: 2, Events: true},
	KindTrace:       {N: 3, DurationSec: 2, Perfetto: true},
	KindFig6:        {N: 6, DurationSec: 2, Fmaxes: []int{1}, PeriodsSec: []float64{2}},
	KindFig7Density: {Sizes: []int{4}, Spacings: []float64{8}, DurationSec: 2},
	KindFig7Scale:   {Sizes: []int{4}, DurationSec: 2},
	KindSnapshot:    {Profile: "none", N: 3, DurationSec: 2, SnapshotAtTick: 4},
	KindResume:      {},
	KindResumeVerif: {},
}

// TestExecutorCancelStoresNothing: a job of any kind whose cancel
// landed before its run finished ends cancelled, with no result and
// no artifact stored — sweeps, which cannot stop early, included.
func TestExecutorCancelStoresNothing(t *testing.T) {
	store, err := NewArtifactStore(StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	exec := &Executor{Store: store}
	job := func(id, kind string) *Job {
		req := *cancelRequests[kind]
		req.Version, req.Kind = RequestVersion, kind
		if kindByName(kind).takesField("resume") {
			req.Resume = &ResumeRef{Job: "snap-1", Artifact: snapshotArtifact}
		}
		if err := req.Validate(); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		return newJob(id, "t", &req, nil, 0)
	}
	// The resume pair needs a stored snapshot to resume.
	if state, msg := exec.Run(job("snap-1", KindSnapshot)); state != StateDone {
		t.Fatalf("snapshot job ended %q (%s)", state, msg)
	}
	for _, kind := range Kinds() {
		if cancelRequests[kind] == nil {
			t.Errorf("no cancel request for kind %s", kind)
			continue
		}
		j := job("cancel-"+kind, kind)
		j.cancel()
		if state, msg := exec.Run(j); state != StateCancelled {
			t.Errorf("%s: cancelled job ended %q (%s), want cancelled", kind, state, msg)
		}
		if st := j.Status(); len(st.Result) != 0 || len(st.Artifacts) != 0 {
			t.Errorf("%s: cancelled job kept a %d-byte result and %d artifacts", kind, len(st.Result), len(st.Artifacts))
		}
		if arts := store.List(j.ID); len(arts) != 0 {
			t.Errorf("%s: cancelled job stored %v", kind, arts)
		}
	}
}

func TestServerCancelMidRun(t *testing.T) {
	_, _, client := newTestServer(t, ServerOptions{Workers: 1})
	ctx := context.Background()

	// A run costing most of a second, so the cancel reliably lands
	// mid-run; the interrupt seam then stops it at a tick boundary.
	req := validChaosRequest()
	req.N = 64
	req.DurationSec = 60
	st, err := client.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := client.Cancel(ctx, st.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	final, err := client.Wait(ctx, st.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != StateCancelled {
		t.Fatalf("state after cancel = %q, want cancelled", final.State)
	}
}

// stubServer is a one-worker server whose executor is a blocking
// stubExec, so the test decides when each job ends.
type stubServer struct {
	srv    *Server
	url    string
	client *Client
	exec   *stubExec
	// ctx is cancelled when the test ends, before the listener closes,
	// so no request made with it outlives the test, even a failed one.
	ctx context.Context
}

func newStubServer(t *testing.T) stubServer {
	t.Helper()
	s, err := NewServer(ServerOptions{Workers: 1})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	s.sched.Close()
	exec := newStubExec(true)
	s.sched = NewScheduler(SchedOptions{Workers: 1, Metrics: s.metrics, OnEvict: s.store.DeleteJob, Run: exec.Run})
	ts := httptest.NewServer(s.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(func() {
		cancel()
		s.Close()
		ts.Close()
	})
	return stubServer{srv: s, url: ts.URL, client: &Client{Base: ts.URL, Tenant: "test"}, exec: exec, ctx: ctx}
}

// goroutinesIn counts the goroutines whose stack holds a frame of fn,
// a package-qualified function name such as "serve.awaitTerminal".
func goroutinesIn(fn string) int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), fn+"(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

type waitOutcome struct {
	st  Status
	err error
}

// startWait runs Wait on its own goroutine and returns once the server
// holds the request in its long poll.
func (ss stubServer) startWait(t *testing.T, ctx context.Context, id string) <-chan waitOutcome {
	t.Helper()
	parked := goroutinesIn("serve.awaitTerminal")
	out := make(chan waitOutcome, 1)
	go func() {
		st, err := ss.client.Wait(ctx, id)
		out <- waitOutcome{st, err}
	}()
	waitFor(t, "the wait on "+id+" to reach the server", func() bool { return goroutinesIn("serve.awaitTerminal") > parked })
	return out
}

// waitResult receives a started wait's outcome, failing after 10 s.
func waitResult(t *testing.T, out <-chan waitOutcome) waitOutcome {
	t.Helper()
	select {
	case o := <-out:
		return o
	case <-time.After(10 * time.Second):
		t.Fatal("wait did not return")
		return waitOutcome{}
	}
}

func (ss stubServer) submit(t *testing.T) Status {
	t.Helper()
	st, err := ss.client.Submit(ss.ctx, validChaosRequest())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return st
}

func (ss stubServer) awaitRunning(t *testing.T, id string) {
	t.Helper()
	waitFor(t, id+" to run", func() bool {
		st, err := ss.client.Status(ss.ctx, id)
		return err == nil && st.State == StateRunning
	})
}

// TestServerWaitLongPoll pins GET /v1/jobs/{id}?wait=1: the request is
// answered once the job is terminal, whatever ended it, with the same
// status document a plain GET returns; a bad wait value is a 400
// naming it, and a client that gives up leaves nothing behind.
func TestServerWaitLongPoll(t *testing.T) {
	t.Run("queued to done", func(t *testing.T) {
		ss := newStubServer(t)
		ss.submit(t) // holds the only worker
		queued := ss.submit(t)
		out := ss.startWait(t, ss.ctx, queued.ID)
		if st, err := ss.client.Status(ss.ctx, queued.ID); err != nil || st.State != StateQueued {
			t.Fatalf("job behind a running one is %q (%v), want queued", st.State, err)
		}
		select {
		case o := <-out:
			t.Fatalf("wait returned %q before the job ran", o.st.State)
		default:
		}
		close(ss.exec.release)
		o := waitResult(t, out)
		if o.err != nil || o.st.State != StateDone || o.st.ID != queued.ID {
			t.Fatalf("wait = %+v, %v; want job %s done", o.st, o.err, queued.ID)
		}
		st, err := ss.client.Status(ss.ctx, queued.ID)
		if err != nil || st.State != o.st.State || st.QueueNs != o.st.QueueNs || st.RunNs != o.st.RunNs {
			t.Errorf("plain status %+v (%v) differs from the waited one %+v", st, err, o.st)
		}
	})

	t.Run("cancel while waiting", func(t *testing.T) {
		ss := newStubServer(t)
		running := ss.submit(t)
		out := ss.startWait(t, ss.ctx, running.ID)
		if err := ss.client.Cancel(ss.ctx, running.ID); err != nil {
			t.Fatalf("cancel: %v", err)
		}
		if o := waitResult(t, out); o.err != nil || o.st.State != StateCancelled {
			t.Fatalf("wait = %q, %v; want cancelled", o.st.State, o.err)
		}
	})

	t.Run("drain while waiting", func(t *testing.T) {
		ss := newStubServer(t)
		running, queued := ss.submit(t), ss.submit(t)
		ss.awaitRunning(t, running.ID)
		outRunning := ss.startWait(t, ss.ctx, running.ID)
		outQueued := ss.startWait(t, ss.ctx, queued.ID)
		if err := ss.srv.Drain(ss.ctx); err != nil {
			t.Fatalf("drain: %v", err)
		}
		for _, c := range []struct {
			out  <-chan waitOutcome
			want State
		}{{outRunning, StateCheckpointed}, {outQueued, StateRejected}} {
			o := waitResult(t, c.out)
			if o.err != nil || o.st.State != c.want || len(o.st.Resubmit) == 0 {
				t.Errorf("wait = %q (resubmit %d bytes), %v; want %q with a resubmission handle",
					o.st.State, len(o.st.Resubmit), o.err, c.want)
			}
		}
	})

	t.Run("unknown job", func(t *testing.T) {
		ss := newStubServer(t)
		_, err := ss.client.Wait(ss.ctx, "test-99")
		if se, ok := err.(*StatusError); !ok || se.Code != http.StatusNotFound {
			t.Fatalf("wait on an unknown job: err = %v, want a 404", err)
		}
	})

	t.Run("bad wait values", func(t *testing.T) {
		ss := newStubServer(t)
		job := ss.submit(t)
		for _, v := range []string{"0", "yes"} {
			resp, err := http.Get(ss.url + "/v1/jobs/" + job.ID + "?wait=" + v)
			if err != nil {
				t.Fatalf("wait=%s: %v", v, err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "wait") {
				t.Errorf("wait=%s: %d %s, want a 400 naming wait", v, resp.StatusCode, msg)
			}
		}
	})

	t.Run("client gives up", func(t *testing.T) {
		ss := newStubServer(t)
		running := ss.submit(t)
		handlers := goroutinesIn("serve.(*Server).handleStatus")
		ctx, cancel := context.WithCancel(ss.ctx)
		out := ss.startWait(t, ctx, running.ID)
		cancel()
		if o := waitResult(t, out); !errors.Is(o.err, context.Canceled) {
			t.Fatalf("cancelled wait: err = %v, want context.Canceled", o.err)
		}
		waitFor(t, "the long-poll handler to return", func() bool {
			return goroutinesIn("serve.(*Server).handleStatus") == handlers
		})
	})
}

// TestServerCloseEndsEveryJob: closing a server whose one worker is
// busy ends the running job cancelled and every queued job rejected
// with its resubmission handle, so an open event stream and a wait on a
// queued job both return.
func TestServerCloseEndsEveryJob(t *testing.T) {
	ss := newStubServer(t)
	running := ss.submit(t)
	queued := []Status{ss.submit(t), ss.submit(t), ss.submit(t)}
	ss.awaitRunning(t, running.ID)

	streamers := goroutinesIn("serve.(*Server).handleEvents")
	events := make(chan error, 1)
	go func() { events <- ss.client.Events(ss.ctx, queued[0].ID, nil) }()
	waitFor(t, "the event stream to open", func() bool {
		return goroutinesIn("serve.(*Server).handleEvents") > streamers
	})
	wait := ss.startWait(t, ss.ctx, queued[1].ID)

	ss.srv.Close()

	for _, st := range append([]Status{running}, queued...) {
		got, err := ss.client.Status(ss.ctx, st.ID)
		if err != nil {
			t.Fatalf("status %s: %v", st.ID, err)
		}
		want := StateRejected
		if st.ID == running.ID {
			want = StateCancelled
		}
		if got.State != want || (want == StateRejected && len(got.Resubmit) == 0) {
			t.Errorf("job %s after Close: %q (resubmit %d bytes), want %q", st.ID, got.State, len(got.Resubmit), want)
		}
	}
	select {
	case err := <-events:
		if err != nil {
			t.Errorf("event stream: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("event stream on a queued job still open after Close")
	}
	if o := waitResult(t, wait); o.err != nil || o.st.State != StateRejected {
		t.Errorf("wait on a queued job after Close = %q, %v; want rejected", o.st.State, o.err)
	}
}

// TestServerArtifactEncodingThreshold pins where compression starts.
// Below gzipMinBytes, one initial congestion window, an artifact is
// written raw with an exact Content-Length even to a client that
// accepts gzip; from it on, it is gzipped; gzip;q=0 gets raw bytes at
// any size.
func TestServerArtifactEncodingThreshold(t *testing.T) {
	s, ts, client := newTestServer(t, ServerOptions{Workers: 1})
	st, err := client.Run(context.Background(), validChaosRequest())
	if err != nil || st.State != StateDone {
		t.Fatalf("run: %v (state %v)", err, st.State)
	}
	blobs := map[int][]byte{}
	for _, size := range []int{gzipMinBytes - 1, gzipMinBytes} {
		blobs[size] = bytes.Repeat([]byte("roborebound "), size/12+1)[:size]
		if _, err := s.store.Put(st.ID, fmt.Sprintf("blob-%d.bin", size), blobs[size]); err != nil {
			t.Fatalf("put %d B: %v", size, err)
		}
	}
	hc := undecodingClient(t)
	for _, tc := range []struct {
		size    int
		accept  string
		gzipped bool
	}{
		{gzipMinBytes - 1, "gzip", false},
		{gzipMinBytes, "gzip", true},
		{gzipMinBytes - 1, "gzip;q=0", false},
		{gzipMinBytes, "gzip;q=0", false},
	} {
		url := fmt.Sprintf("%s/v1/jobs/%s/artifacts/blob-%d.bin", ts.URL, st.ID, tc.size)
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept-Encoding", tc.accept)
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatalf("%d B, Accept-Encoding %q: %v", tc.size, tc.accept, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%d B, Accept-Encoding %q: read: %v", tc.size, tc.accept, err)
		}
		if gzipped := resp.Header.Get("Content-Encoding") == "gzip"; gzipped != tc.gzipped {
			t.Errorf("%d B, Accept-Encoding %q: gzipped = %v, want %v", tc.size, tc.accept, gzipped, tc.gzipped)
			continue
		}
		if tc.gzipped {
			zr, err := gzip.NewReader(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("%d B: %v", tc.size, err)
			}
			if body, err = io.ReadAll(zr); err != nil {
				t.Fatalf("%d B: gunzip: %v", tc.size, err)
			}
		} else if resp.ContentLength != int64(tc.size) {
			t.Errorf("%d B, Accept-Encoding %q: Content-Length %d", tc.size, tc.accept, resp.ContentLength)
		}
		if !bytes.Equal(body, blobs[tc.size]) {
			t.Errorf("%d B, Accept-Encoding %q: body differs from the stored artifact", tc.size, tc.accept)
		}
	}
}

// gzipSizedRequest is a job whose events.ndjson and perfetto.json both
// exceed gzipMinBytes: a 30 s trace of 4 robots.
func gzipSizedRequest(seed uint64) *JobRequest {
	return &JobRequest{Version: RequestVersion, Kind: KindTrace, Seed: seed, N: 4, DurationSec: 30, Perfetto: true}
}

// TestServerGzipArtifact checks the conditional compression path: a
// large artifact ships gzip-encoded to a client that accepts it, raw
// otherwise, identical bytes either way.
func TestServerGzipArtifact(t *testing.T) {
	_, ts, client := newTestServer(t, ServerOptions{Workers: 1})
	ctx := context.Background()

	st, err := client.Run(ctx, gzipSizedRequest(1))
	if err != nil || st.State != StateDone {
		t.Fatalf("run: %v (state %v)", err, st.State)
	}

	compressed, err := fetchGzipped(undecodingClient(t), ts.URL, st.ID, "events.ndjson")
	if err != nil {
		t.Fatalf("get: %v", err)
	}

	raw, err := client.Artifact(ctx, st.ID, "events.ndjson")
	if err != nil {
		t.Fatalf("raw artifact: %v", err)
	}
	if len(compressed) >= len(raw) {
		t.Errorf("gzip did not shrink the artifact: %d vs %d raw", len(compressed), len(raw))
	}
	if len(raw) < gzipMinBytes {
		t.Fatalf("test artifact only %d bytes; below the gzip threshold", len(raw))
	}

	// A qvalue of 0 refuses gzip, in every spelling that parses to zero
	// (RFC 9110 §12.5.3).
	hc := undecodingClient(t)
	for header, wantGzip := range map[string]bool{
		"gzip":          true,
		"gzip;q=0.5":    true,
		"deflate, gzip": true,
		"gzip;q=0":      false,
		"gzip;q=0.0":    false,
		"gzip; q=0.000": false,
		"deflate":       false,
	} {
		httpReq, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/artifacts/events.ndjson", nil)
		if err != nil {
			t.Fatal(err)
		}
		httpReq.Header.Set("Accept-Encoding", header)
		resp, err := hc.Do(httpReq)
		if err != nil {
			t.Fatalf("Accept-Encoding %q: %v", header, err)
		}
		resp.Body.Close()
		if got := resp.Header.Get("Content-Encoding") == "gzip"; got != wantGzip {
			t.Errorf("Accept-Encoding %q: gzip response = %v, want %v", header, got, wantGzip)
		}
	}
}

// undecodingClient is an HTTP client with transparent decompression
// off, so Content-Encoding and the compressed body are observable.
func undecodingClient(t *testing.T) *http.Client {
	tr := &http.Transport{DisableCompression: true}
	t.Cleanup(tr.CloseIdleConnections)
	return &http.Client{Transport: tr}
}

// fetchGzipped requests an artifact's gzip encoding and returns the
// compressed body. Safe to call off the test goroutine: failures come
// back as errors.
func fetchGzipped(hc *http.Client, base, id, name string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id+"/artifacts/"+name, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Encoding"); got != "gzip" {
		return nil, fmt.Errorf("%s/%s: Content-Encoding = %q, want gzip", id, name, got)
	}
	return io.ReadAll(resp.Body)
}

// freshGzip compresses data the way handleArtifact would without its
// writer pool: a new gzip.Writer per call, at gzip.BestSpeed.
func freshGzip(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz, err := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	if err != nil {
		t.Fatalf("gzip writer: %v", err)
	}
	if _, err := gz.Write(data); err != nil {
		t.Fatalf("gzip write: %v", err)
	}
	if err := gz.Close(); err != nil {
		t.Fatalf("gzip close: %v", err)
	}
	return buf.Bytes()
}

// TestServerGzipArtifactsConcurrent is the equivalence owner for pooled
// artifact compression (run it under -race): concurrent gzip fetches of
// different artifacts through one server — so recycled writers cross
// between requests — each carry exactly the bytes a fresh gzip.Writer
// produces for that artifact, and gunzip to the stored bytes and the
// listed SHA-256. A writer that kept anything of its last response
// would fail the byte comparison.
func TestServerGzipArtifactsConcurrent(t *testing.T) {
	_, ts, client := newTestServer(t, ServerOptions{Workers: 2})
	ctx := context.Background()

	type artifact struct {
		id   string
		info ArtifactInfo
		want []byte // the compressed body a fresh writer produces
	}
	var arts []artifact
	for seed := uint64(1); seed <= 3; seed++ {
		st, err := client.Run(ctx, gzipSizedRequest(seed))
		if err != nil || st.State != StateDone {
			t.Fatalf("seed %d: run: %v (state %v)", seed, err, st.State)
		}
		for _, info := range st.Artifacts {
			raw, err := client.Artifact(ctx, st.ID, info.Name)
			if err != nil {
				t.Fatalf("raw artifact %s: %v", info.Name, err)
			}
			if len(raw) >= gzipMinBytes {
				arts = append(arts, artifact{st.ID, info, freshGzip(t, raw)})
			}
		}
	}
	if len(arts) < 4 {
		t.Fatalf("only %d artifacts over the gzip threshold; the test needs several distinct ones", len(arts))
	}

	hc := undecodingClient(t)
	const fetchers, rounds = 8, 6
	var wg sync.WaitGroup
	for g := 0; g < fetchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				a := arts[(g+i)%len(arts)]
				got, err := fetchGzipped(hc, ts.URL, a.id, a.info.Name)
				if err != nil {
					t.Errorf("fetcher %d: %v", g, err)
					return
				}
				if !bytes.Equal(got, a.want) {
					t.Errorf("fetcher %d: %s/%s: pooled response differs from a fresh gzip.Writer's (%d vs %d bytes)",
						g, a.id, a.info.Name, len(got), len(a.want))
				}
				zr, err := gzip.NewReader(bytes.NewReader(got))
				if err != nil {
					t.Errorf("fetcher %d: %s/%s: %v", g, a.id, a.info.Name, err)
					return
				}
				plain, err := io.ReadAll(zr)
				if err != nil {
					t.Errorf("fetcher %d: %s/%s: gunzip: %v", g, a.id, a.info.Name, err)
				}
				if sum := sha256.Sum256(plain); hex.EncodeToString(sum[:]) != a.info.SHA256 {
					t.Errorf("fetcher %d: %s/%s: gunzipped bytes do not hash to the listed SHA-256", g, a.id, a.info.Name)
				}
			}
		}(g)
	}
	wg.Wait()
}

// brokenPipe is a ResponseWriter whose body writes fail, as a client
// hanging up mid-artifact makes them.
type brokenPipe struct{ header http.Header }

func (w *brokenPipe) Header() http.Header       { return w.header }
func (w *brokenPipe) WriteHeader(int)           {}
func (w *brokenPipe) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

// TestServerGzipWriteFailure: a failed compressed write is counted on
// the server's error tally, and the writer that failed is not recycled
// — every later response is still exactly what a fresh writer produces.
func TestServerGzipWriteFailure(t *testing.T) {
	s, ts, client := newTestServer(t, ServerOptions{Workers: 1})
	ctx := context.Background()
	st, err := client.Run(ctx, gzipSizedRequest(1))
	if err != nil || st.State != StateDone {
		t.Fatalf("run: %v (state %v)", err, st.State)
	}
	raw, err := client.Artifact(ctx, st.ID, "events.ndjson")
	if err != nil {
		t.Fatalf("raw artifact: %v", err)
	}
	want := freshGzip(t, raw)

	httpErrors := func() float64 {
		for _, m := range s.MetricsSnapshot() {
			if m.Name == "serve.http.errors" {
				return m.Value
			}
		}
		return 0
	}
	errorsBefore := httpErrors()
	const failures = 4
	for i := 0; i < failures; i++ {
		httpReq := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+st.ID+"/artifacts/events.ndjson", nil)
		httpReq.Header.Set("Accept-Encoding", "gzip")
		httpReq.Header.Set(TenantHeader, "test")
		s.Handler().ServeHTTP(&brokenPipe{header: http.Header{}}, httpReq)
	}
	if got := httpErrors() - errorsBefore; got != failures {
		t.Errorf("serve.http.errors rose by %v over %d failed artifact writes, want %d", got, failures, failures)
	}

	hc := undecodingClient(t)
	for i := 0; i < 2*failures; i++ {
		got, err := fetchGzipped(hc, ts.URL, st.ID, "events.ndjson")
		if err != nil {
			t.Fatalf("fetch after failed writes: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("fetch %d after failed writes differs from a fresh gzip.Writer's output", i)
		}
	}
}

// TestServerEventStreamDisconnect: a client abandoning the NDJSON
// stream mid-job must not disturb the job — it runs to completion and
// a fresh stream replays every event from the start.
func TestServerEventStreamDisconnect(t *testing.T) {
	_, _, client := newTestServer(t, ServerOptions{Workers: 1})
	ctx := context.Background()

	req := validChaosRequest()
	req.DurationSec = 20
	st, err := client.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// Open the stream, take the first event, then hang up.
	streamCtx, cancelStream := context.WithCancel(ctx)
	got := make(chan Event, 1)
	go client.Events(streamCtx, st.ID, func(e Event) {
		select {
		case got <- e:
		default:
		}
	})
	select {
	case <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("no event arrived before disconnect")
	}
	cancelStream()

	// The job is unaffected: it runs to done.
	final, err := client.Wait(ctx, st.ID)
	if err != nil {
		t.Fatalf("wait after disconnect: %v", err)
	}
	if final.State != StateDone {
		t.Fatalf("state after disconnect = %q (error %q), want done", final.State, final.Error)
	}

	// A replayed stream starts from seq 1 and ends terminal.
	var events []Event
	if err := client.Events(ctx, st.ID, func(e Event) { events = append(events, e) }); err != nil {
		t.Fatalf("replay events: %v", err)
	}
	if len(events) < 2 || events[0].Seq != 1 || events[0].State != StateQueued {
		t.Fatalf("replayed stream malformed: %+v", events)
	}
	if last := events[len(events)-1]; last.State != StateDone {
		t.Fatalf("replayed stream ends %q, want done", last.State)
	}
}

// TestServerTenantsAndMetrics: a tenant's occupancy and tallies are
// served as serve.tenant.<t>.* samples on /v1/metrics.
func TestServerTenantsAndMetrics(t *testing.T) {
	_, _, client := newTestServer(t, ServerOptions{Workers: 1})
	ctx := context.Background()

	if _, err := client.Run(ctx, validChaosRequest()); err != nil {
		t.Fatalf("run: %v", err)
	}

	// The worker records a job's telemetry just after the terminal
	// transition that ends the client's wait, so give it a moment.
	var data []byte
	var err error
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if data, err = client.MetricsJSON(ctx); err != nil {
			t.Fatalf("metrics: %v", err)
		}
		if strings.Contains(string(data), "serve.tenant.test.service_ns") || time.Now().After(deadline) {
			break
		}
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	body := string(data)
	for _, want := range []string{
		"serve.tenant.test.submitted",
		"serve.tenant.test.completed",
		"serve.tenant.test.queue_depth",
		"serve.tenant.test.running",
		"serve.tenant.test.queue_wait_ns",
		"serve.tenant.test.service_ns",
		"serve.http.requests",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics export missing %q", want)
		}
	}
}

// TestServerConcurrentTenantSessions runs concurrent Client.Run
// sessions from four tenants over real HTTP: every session finishes
// done, and the scheduler's per-tenant accounting adds up.
func TestServerConcurrentTenantSessions(t *testing.T) {
	const tenants, perTenant = 4, 8
	srv, ts, _ := newTestServer(t, ServerOptions{Workers: 4})
	ctx := context.Background()

	errs := make(chan error, tenants*perTenant)
	for i := 0; i < tenants*perTenant; i++ {
		go func() {
			client := &Client{Base: ts.URL, Tenant: fmt.Sprintf("load-%d", i%tenants)}
			req := validChaosRequest()
			req.Seed = uint64(i)
			st, err := client.Run(ctx, req)
			if err == nil && st.State != StateDone {
				err = fmt.Errorf("session %d ended %q (%s)", i, st.State, st.Error)
			}
			errs <- err
		}()
	}
	for i := 0; i < tenants*perTenant; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}

	// The last job's finish lands just after its client's wait ends, so
	// poll until every tenant's gauges read idle and its tallies add up.
	var problems []string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		counts := map[string]float64{}
		for _, s := range srv.MetricsSnapshot() {
			counts[s.Name] = s.Value
		}
		problems = problems[:0]
		for i := 0; i < tenants; i++ {
			prefix := fmt.Sprintf("serve.tenant.load-%d.", i)
			if counts[prefix+"queue_depth"] != 0 || counts[prefix+"running"] != 0 {
				problems = append(problems, fmt.Sprintf("tenant load-%d still holds work: queue_depth %v, running %v",
					i, counts[prefix+"queue_depth"], counts[prefix+"running"]))
			}
			if counts[prefix+"submitted"] != perTenant || counts[prefix+"completed"] != perTenant {
				problems = append(problems, fmt.Sprintf("tenant load-%d: submitted %v, completed %v, want %d each",
					i, counts[prefix+"submitted"], counts[prefix+"completed"], perTenant))
			}
		}
		if len(problems) == 0 || time.Now().After(deadline) {
			break
		}
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestClientEventsLineLimit: the event scanner starts at bufio's
// default buffer and grows on demand, so the line limit is still 1 MiB
// — a line just under it parses, one over it is bufio.ErrTooLong.
func TestClientEventsLineLimit(t *testing.T) {
	const frame = `{"seq":1,"label":""}` + "\n"
	line := func(size int) string { // one event line of exactly size bytes, newline included
		return `{"seq":1,"label":"` + strings.Repeat("x", size-len(frame)) + `"}` + "\n"
	}
	const under, over = 1<<20 - 1, 1<<20 + 2
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		size := under
		if strings.Contains(r.URL.Path, "/over/") {
			size = over
		}
		io.WriteString(w, `{"seq":0,"state":"running"}`+"\n"+line(size))
	}))
	defer ts.Close()
	client := &Client{Base: ts.URL}

	var got []Event
	if err := client.Events(context.Background(), "under", func(e Event) { got = append(got, e) }); err != nil {
		t.Fatalf("a %d-byte event line: %v", under, err)
	}
	if len(got) != 2 || got[1].Seq != 1 || len(got[1].Label) != under-len(frame) {
		t.Fatalf("got %d events, want the short one and the long one intact", len(got))
	}
	if err := client.Events(context.Background(), "over", nil); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("a %d-byte event line: err = %v, want bufio.ErrTooLong", over, err)
	}
}
