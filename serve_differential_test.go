// HTTP ≡ facade differential matrix for the serving layer: every job
// kind, submitted over real HTTP to a roborebound serve instance, must
// produce byte-identical result documents and artifacts to the same
// request executed directly through the facade path (RunJobDirect).
// The server adds scheduling, long polling, storage, and transport — none
// of which may perturb a single result byte.
//
// This file is package roborebound_test (not roborebound) because
// internal/serve imports the root package; an internal test file would
// create an import cycle.
package roborebound_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"roborebound"
	"roborebound/internal/serve"
)

// diffHarness is one server instance shared by a matrix run.
type diffHarness struct {
	srv    *serve.Server
	client *serve.Client
}

func newDiffHarness(t *testing.T) *diffHarness {
	t.Helper()
	srv, err := serve.NewServer(serve.ServerOptions{Workers: 2})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return &diffHarness{
		srv:    srv,
		client: &serve.Client{Base: ts.URL, Tenant: "diff"},
	}
}

// runCell executes req over HTTP and directly, asserts byte identity
// of the result document and every artifact, and returns the HTTP job
// status plus the direct output (for chaining resume handles).
func (h *diffHarness) runCell(t *testing.T, req *serve.JobRequest, resolve func(serve.ResumeRef) ([]byte, error)) (serve.Status, *serve.JobOutput) {
	t.Helper()
	ctx := context.Background()

	st, err := h.client.Run(ctx, req)
	if err != nil {
		t.Fatalf("HTTP run: %v", err)
	}
	if st.State != serve.StateDone {
		t.Fatalf("HTTP job ended %q (error %q), want done", st.State, st.Error)
	}

	direct, err := serve.RunJobDirect(req, resolve)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}

	if !bytes.Equal(st.Result, direct.Result) {
		t.Errorf("result documents diverge:\nHTTP:   %s\ndirect: %s", st.Result, direct.Result)
	}
	if len(st.Artifacts) != len(direct.Artifacts) {
		t.Fatalf("artifact counts diverge: HTTP %d, direct %d", len(st.Artifacts), len(direct.Artifacts))
	}
	for i, blob := range direct.Artifacts {
		if st.Artifacts[i].Name != blob.Name {
			t.Fatalf("artifact %d name: HTTP %q, direct %q", i, st.Artifacts[i].Name, blob.Name)
		}
		got, err := h.client.Artifact(ctx, st.ID, blob.Name)
		if err != nil {
			t.Fatalf("fetch artifact %s: %v", blob.Name, err)
		}
		if !bytes.Equal(got, blob.Data) {
			t.Errorf("artifact %s diverges: HTTP %d bytes, direct %d bytes", blob.Name, len(got), len(blob.Data))
		}
	}
	return st, direct
}

// diffCell is one named request of the matrix.
type diffCell struct {
	name string
	req  *serve.JobRequest
}

// matrixCells lists the matrix: chaos cells across every controller ×
// fault profile × seed, plus every sweep kind. Kinds that need a
// stored snapshot are the resume chain's (chainKinds). The chaos cells
// run 30 s, past the 24 s below which a profile schedules no fault, so
// the profile dimension is live (RequireProfilesDiffer checks it).
func matrixCells() []diffCell {
	controllers := []string{"flocking", "patrol", "warehouse"}
	profiles := []string{"none", "loss", "mixed"}
	seeds := []uint64{1, 2}
	base := func(kind string) serve.JobRequest {
		return serve.JobRequest{Version: serve.RequestVersion, Kind: kind}
	}
	var cells []diffCell
	add := func(name string, req serve.JobRequest) {
		cells = append(cells, diffCell{name, &req})
	}

	for _, ctl := range controllers {
		for _, profile := range profiles {
			for _, seed := range seeds {
				req := base(serve.KindChaos)
				req.Controller, req.Profile, req.Seed = ctl, profile, seed
				req.N, req.DurationSec = 4, 30
				// One events cell per (controller, profile) pins the
				// NDJSON artifact byte-identity too.
				req.Events = seed == 1
				add(fmt.Sprintf("chaos/%s/%s/seed%d", ctl, profile, seed), req)
			}
		}
	}
	for _, ctl := range controllers {
		req := base(serve.KindTrace)
		req.Controller, req.Seed, req.N, req.DurationSec, req.Perfetto = ctl, 3, 3, 3, true
		add("trace/"+ctl, req)
	}
	for _, seed := range seeds {
		req := base(serve.KindFig6)
		req.Seed, req.N, req.DurationSec = seed, 6, 4
		req.Fmaxes, req.PeriodsSec = []int{1}, []float64{2}
		add(fmt.Sprintf("fig6/seed%d", seed), req)
	}
	density := base(serve.KindFig7Density)
	density.Seed, density.DurationSec, density.Sizes, density.Spacings = 1, 4, []int{4}, []float64{8}
	add("fig7-density", density)
	scale7 := base(serve.KindFig7Scale)
	scale7.Seed, scale7.DurationSec, scale7.Sizes = 1, 4, []int{4}
	add("fig7-scale", scale7)
	return cells
}

// chainKinds are the kinds TestServeDifferentialResumeChain runs, in
// chain order.
var chainKinds = []string{serve.KindSnapshot, serve.KindResume, serve.KindResumeVerif}

// TestServeDifferentialMatrix is the headline HTTP≡facade matrix:
// every cell of matrixCells byte-compared between the served and
// direct paths.
func TestServeDifferentialMatrix(t *testing.T) {
	h := newDiffHarness(t)
	// chaos/<controller>/seed<S> → profile → fingerprint.
	fingerprints := map[string]map[string]string{}
	for _, c := range matrixCells() {
		t.Run(c.name, func(t *testing.T) {
			st, _ := h.runCell(t, c.req, nil)
			if c.req.Kind != serve.KindChaos {
				return
			}
			var doc struct {
				Fingerprint string `json:"fingerprint"`
			}
			if err := json.Unmarshal(st.Result, &doc); err != nil || doc.Fingerprint == "" {
				t.Fatalf("result has no fingerprint (%v): %s", err, st.Result)
			}
			key := fmt.Sprintf("chaos/%s/seed%d", c.req.Controller, c.req.Seed)
			if fingerprints[key] == nil {
				fingerprints[key] = map[string]string{}
			}
			fingerprints[key][c.req.Profile] = doc.Fingerprint
		})
	}
	roborebound.RequireProfilesDiffer(t, fingerprints)
}

// TestServeDifferentialCoversEveryKind fails when serve's kind table
// gains a row that no differential cell runs.
func TestServeDifferentialCoversEveryKind(t *testing.T) {
	covered := map[string]bool{}
	for _, c := range matrixCells() {
		covered[c.req.Kind] = true
	}
	for _, kind := range chainKinds {
		covered[kind] = true
	}
	for _, kind := range serve.Kinds() {
		if !covered[kind] {
			t.Errorf("job kind %q has no HTTP≡facade differential cell", kind)
		}
	}
}

// TestServeDifferentialResumeChain runs the snapshot → resume →
// resume-verify chain per controller: the served snapshot artifact
// must equal the direct one, and resuming through the server must
// match resuming directly from the same bytes.
func TestServeDifferentialResumeChain(t *testing.T) {
	h := newDiffHarness(t)

	for _, ctl := range []string{"flocking", "patrol", "warehouse"} {
		t.Run(ctl, func(t *testing.T) {
			snapReq := &serve.JobRequest{
				Version: serve.RequestVersion, Kind: chainKinds[0],
				Controller: ctl, Profile: "mixed", Seed: 7,
				N: 4, DurationSec: 30, SnapshotAtTick: 64,
			}
			snapSt, snapOut := h.runCell(t, snapReq, nil)

			// The direct run's snapshot bytes back the direct resume; the
			// cell comparison above already proved them identical to the
			// served artifact.
			var snapshot []byte
			for _, blob := range snapOut.Artifacts {
				if blob.Name == "snapshot.rbsn" {
					snapshot = blob.Data
				}
			}
			if snapshot == nil {
				t.Fatal("snapshot job produced no snapshot.rbsn")
			}
			resolve := func(ref serve.ResumeRef) ([]byte, error) {
				if ref.Job != snapSt.ID || ref.Artifact != "snapshot.rbsn" {
					return nil, fmt.Errorf("unexpected resume ref %+v", ref)
				}
				return snapshot, nil
			}

			for _, kind := range chainKinds[1:] {
				req := &serve.JobRequest{
					Version: serve.RequestVersion, Kind: kind,
					Resume: &serve.ResumeRef{Job: snapSt.ID, Artifact: "snapshot.rbsn"},
				}
				h.runCell(t, req, resolve)
			}
		})
	}
}

// TestServeDifferentialClientDisconnect is the matrix's disconnect
// cell: a client that abandons its long poll mid-job must not perturb
// the job — its eventual result stays byte-identical to the direct run.
func TestServeDifferentialClientDisconnect(t *testing.T) {
	h := newDiffHarness(t)
	ctx := context.Background()

	req := &serve.JobRequest{
		Version: serve.RequestVersion, Kind: serve.KindChaos,
		Controller: "flocking", Profile: "mixed", Seed: 5,
		N: 32, DurationSec: 60, Events: true,
	}
	st, err := h.client.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	pollUntil(t, "the job to run", func() bool {
		cur, err := h.client.Status(ctx, st.ID)
		return err == nil && cur.State == serve.StateRunning
	})

	// Park a ?wait=1 long poll on the running job, then hang up.
	const poll = "serve.awaitTerminal("
	parked := goroutinesIn(poll)
	waitCtx, cancelWait := context.WithCancel(ctx)
	abandoned := make(chan error, 1)
	go func() {
		_, err := h.client.Wait(waitCtx, st.ID)
		abandoned <- err
	}()
	pollUntil(t, "the long poll to reach the server", func() bool { return goroutinesIn(poll) > parked })
	cancelWait()
	if err := <-abandoned; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned wait: err = %v, want context.Canceled", err)
	}

	final, err := h.client.Wait(ctx, st.ID)
	if err != nil {
		t.Fatalf("wait after disconnect: %v", err)
	}
	if final.State != serve.StateDone {
		t.Fatalf("job ended %q (error %q) after disconnect, want done", final.State, final.Error)
	}

	direct, err := serve.RunJobDirect(req, nil)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	if !bytes.Equal(final.Result, direct.Result) {
		t.Error("disconnect cell result diverges from direct run")
	}
	for _, blob := range direct.Artifacts {
		got, err := h.client.Artifact(ctx, st.ID, blob.Name)
		if err != nil {
			t.Fatalf("fetch %s: %v", blob.Name, err)
		}
		if !bytes.Equal(got, blob.Data) {
			t.Errorf("disconnect cell artifact %s diverges from direct run", blob.Name)
		}
	}
}

// goroutinesIn counts the goroutines whose stack holds a frame of fn,
// a package-qualified function name followed by "(".
func goroutinesIn(fn string) int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), fn)
		}
		buf = make([]byte, 2*len(buf))
	}
}

// pollUntil polls cond until it holds, failing the test after 10 s.
func pollUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
