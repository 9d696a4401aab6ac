package serve

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"roborebound/internal/obs"
)

// TenantHeader names the request header carrying the tenant identity.
// Absent means DefaultTenant. (A production deployment would bind the
// tenant to authenticated identity; the serving layer keeps the
// header seam so the scheduler and tests exercise real multi-tenancy
// without dragging an auth stack into a simulation repo.)
const (
	TenantHeader  = "X-RoboRebound-Tenant"
	DefaultTenant = "default"
)

// gzipMinBytes is the smallest artifact worth compressing: one initial
// congestion window (RFC 6928: ten 1 460-byte segments). A smaller body
// leaves in the sender's first flight whether or not it is compressed,
// so gzip saves it no round trip, and the client would pay flate's
// 32 KiB window and tables per fetch to inflate it. metrics.json is
// ~1 070 B per robot, so a cell of fewer than 14 robots sends it raw;
// the event log of any real run still compresses.
const gzipMinBytes = 14600

// gzipWriters recycles artifact compressors: a gzip.Writer carries
// ~1.2 MB of deflate state, too much to build per fetch. Only artifacts
// of gzipMinBytes or more compress (event logs and traces, not a tiny
// job's metrics.json). A writer goes back only after a
// complete, error-free stream and only once it has been Reset off the
// ResponseWriter, so the pool retains compressor state and nothing of
// any request. Reset restores exactly the state NewWriterLevel builds,
// so the bytes on the wire do not depend on whether the writer is fresh.
//
// Writers compress at gzip.BestSpeed: at the default level every Reset
// zeroes ~640 KB of hash tables and a fetch costs 2-5x the CPU, for
// bodies only ~2 % of the raw size smaller (DESIGN.md, "Streaming and
// artifacts").
var gzipWriters = sync.Pool{New: func() any {
	gz, _ := gzip.NewWriterLevel(io.Discard, gzip.BestSpeed) // errors only on an invalid level
	return gz
}}

// ServerOptions configures a Server.
type ServerOptions struct {
	// Workers is the scheduler's pool size (default 2).
	Workers int
	// SpillDir is the artifact spillover directory ("" keeps every
	// artifact in memory).
	SpillDir string
}

// Server is the simulation-as-a-service front-end: an http.Handler
// wiring the request codec, the round-robin scheduler, the executors,
// and the artifact store together.
type Server struct {
	sched   *Scheduler
	store   *ArtifactStore
	metrics *Metrics
	mux     *http.ServeMux
}

// NewServer builds a server and starts its scheduler pool. Callers
// own the listener: mount Handler() on any http.Server (or
// httptest).
func NewServer(opts ServerOptions) (*Server, error) {
	store, err := NewArtifactStore(StoreOptions{Dir: opts.SpillDir})
	if err != nil {
		return nil, err
	}
	metrics := NewMetrics()
	exec := &Executor{Store: store}
	s := &Server{store: store, metrics: metrics}
	s.sched = NewScheduler(SchedOptions{
		Workers: opts.Workers,
		Metrics: metrics,
		OnEvict: store.DeleteJob,
		Run:     exec.Run,
	})
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/artifacts", s.handleArtifactList)
	s.mux.HandleFunc("GET /v1/jobs/{id}/artifacts/{name}", s.handleArtifact)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return s, nil
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return http.HandlerFunc(s.serveHTTP) }

func (s *Server) serveHTTP(w http.ResponseWriter, r *http.Request) {
	s.metrics.Inc("serve.http.requests")
	s.mux.ServeHTTP(w, r)
}

// Drain gracefully winds the server down; see Scheduler.Drain.
func (s *Server) Drain(ctx context.Context) error { return s.sched.Drain(ctx) }

// Close stops the scheduler pool.
func (s *Server) Close() { s.sched.Close() }

// MetricsSnapshot snapshots the server's telemetry registry.
func (s *Server) MetricsSnapshot() []obs.Sample { return s.metrics.Snapshot() }

type errorDoc struct {
	Error string `json:"error"`
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(data)
}

func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	s.metrics.Inc("serve.http.errors")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	data, _ := json.Marshal(errorDoc{Error: msg})
	w.Write(data)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant := r.Header.Get(TenantHeader)
	if tenant == "" {
		tenant = DefaultTenant
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err != nil {
		s.writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds limit")
		return
	}
	req, err := DecodeJobRequest(body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	j, err := s.sched.Submit(tenant, req, body)
	if err != nil {
		var overload *OverloadError
		switch {
		case errors.As(err, &overload):
			w.Header().Set("Retry-After", strconv.Itoa(overload.RetryAfterSec))
			s.writeError(w, http.StatusTooManyRequests, err.Error())
		case errors.Is(err, ErrDraining):
			// A draining server is going away; point the client at a
			// conservative re-submission delay on whatever replaces it.
			w.Header().Set("Retry-After", "10")
			s.writeError(w, http.StatusServiceUnavailable, err.Error())
		default:
			s.writeError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	s.writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.sched.Job(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Sprintf("no job %q", id))
		return nil, false
	}
	return j, true
}

// handleStatus writes the job's status document. With ?wait=1 it first
// blocks until the job is terminal, so a client learns the outcome in
// one request; a client that goes away first gets nothing.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	wait, err := waitParam(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if wait && !awaitTerminal(r.Context(), j) {
		return
	}
	s.writeJSON(w, http.StatusOK, j.Status())
}

// waitParam reads the status request's one parameter: absent means
// answer now, wait=1 means answer once the job is terminal, and
// anything else is an error naming it.
func waitParam(r *http.Request) (bool, error) {
	vals, ok := r.URL.Query()["wait"]
	switch {
	case !ok:
		return false, nil
	case len(vals) == 1 && vals[0] == "1":
		return true, nil
	}
	return false, fmt.Errorf("wait must be 1, got %q", strings.Join(vals, "&"))
}

// awaitTerminal blocks until j is terminal (true) or ctx is done
// (false), waking on each event the job appends.
func awaitTerminal(ctx context.Context, j *Job) bool {
	for {
		state, changed := j.watch()
		if state.Terminal() {
			return true
		}
		//rebound:nondet a long poll races client disconnect by design; the status it writes is read after the job is terminal
		select {
		case <-changed:
		case <-ctx.Done():
			return false
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.sched.Cancel(id) {
		s.writeError(w, http.StatusNotFound, fmt.Sprintf("no job %q", id))
		return
	}
	s.writeJSON(w, http.StatusOK, struct {
		ID        string `json:"id"`
		Cancelled bool   `json:"cancelled"`
	}{id, true})
}

// handleEvents streams the job's progress events as NDJSON over
// chunked HTTP, one JSON object per line, until the job reaches a
// terminal state or the client disconnects. Each event is flushed as
// it lands, so a client sees sweep progress live.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	after := 0
	for {
		events, state, changed := j.EventsSince(after)
		for _, e := range events {
			data, err := json.Marshal(e)
			if err != nil {
				return
			}
			if _, err := w.Write(append(data, '\n')); err != nil {
				return // client went away; the job keeps running
			}
		}
		after += len(events)
		if flusher != nil {
			flusher.Flush()
		}
		if state.Terminal() {
			// The terminal transition appends its event under the same
			// lock, so once we observe a terminal state with no new
			// events, the stream is complete.
			if more, _, _ := j.EventsSince(after); len(more) == 0 {
				return
			}
			continue
		}
		//rebound:nondet stream pacing races client disconnect by design; events themselves are deterministic per job
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleArtifactList(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		s.writeJSON(w, http.StatusOK, s.store.List(j.ID))
	}
}

// handleArtifact delivers one artifact raw, gzip-compressed when the
// client accepts it and the blob is big enough. A client that wants
// an integrity check compares against the SHA-256 in the job status
// or the artifact listing.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	name := r.PathValue("name")
	if !ValidArtifactName(name) {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid artifact name %q", name))
		return
	}
	data, err := s.store.Get(j.ID, name)
	if err != nil {
		s.writeError(w, http.StatusNotFound, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if len(data) >= gzipMinBytes && acceptsGzip(r) {
		w.Header().Set("Content-Encoding", "gzip")
		w.WriteHeader(http.StatusOK)
		if err := writeGzip(w, data); err != nil {
			// The status line is gone, so the failure (in practice the
			// client hanging up mid-body) can only be counted.
			s.metrics.Inc("serve.http.errors")
		}
		return
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// writeGzip streams data to w as one gzip member through a pooled
// writer. A writer whose Write or Close failed is left for the
// collector: it is in an error state and still references w.
func writeGzip(w io.Writer, data []byte) error {
	gz := gzipWriters.Get().(*gzip.Writer)
	gz.Reset(w)
	if _, err := gz.Write(data); err != nil {
		return err
	}
	if err := gz.Close(); err != nil {
		return err
	}
	gz.Reset(io.Discard)
	gzipWriters.Put(gz)
	return nil
}

// acceptsGzip reports whether the request's Accept-Encoding lists gzip
// with a nonzero qvalue: q=0 means "not acceptable" (RFC 9110 §12.5.3).
func acceptsGzip(r *http.Request) bool {
	for _, enc := range r.Header.Values("Accept-Encoding") {
		for _, tok := range strings.Split(enc, ",") {
			coding, param, _ := strings.Cut(tok, ";")
			if strings.TrimSpace(coding) != "gzip" {
				continue
			}
			q, weighted := strings.CutPrefix(strings.TrimSpace(param), "q=")
			v, err := strconv.ParseFloat(q, 64)
			return !weighted || err != nil || v != 0
		}
	}
	return false
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	data := obs.AppendMetricsJSON(nil, s.metrics.Snapshot())
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}{"ok", s.sched.Draining()})
}
