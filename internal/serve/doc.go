// Package serve is the simulation-as-a-service front-end: a
// long-running, stdlib-only HTTP server that exposes the repository's
// deterministic facades (chaos cells, traces, the fig6/fig7 sweeps,
// snapshot capture and resume) as submitted jobs.
//
// The package is structured as independently testable layers:
//
//   - kinds.go: the job-kind table, the one definition of every kind
//     — its name, the request fields it takes, its run function.
//     Kinds(), validation and dispatch all read it.
//   - wire.go: the versioned JSON job-request codec. Requests are
//     size-bounded, reject unknown fields and fields the kind does not
//     take, validate every numeric knob against hard caps, and reject
//     a faulted cell too short to schedule a fault, before any work is
//     admitted — the internal/wire discipline (bounded, canonical, no
//     trailing garbage) applied to JSON.
//   - job.go: the job model — states, the NDJSON progress-event
//     stream, and the status document. GET /v1/jobs/{id}?wait=1 is a
//     long poll: it answers once the job is terminal, so a client
//     learns the outcome in one request.
//   - sched.go: the multi-tenant scheduler. Per-tenant FIFO queues
//     of at most 64 jobs (overflow is backpressure: 429 + Retry-After,
//     never unbounded growth), plain round-robin across tenants with
//     queued work, and graceful drain (in-flight jobs finish or
//     checkpoint through internal/snapshot; queued jobs are rejected
//     carrying a resubmission handle).
//   - store.go: the artifact store (memory up to a threshold,
//     disk-backed spillover above it). Artifacts are delivered raw, or
//     gzip-compressed from 14 600 bytes (one initial congestion
//     window) when the client accepts it; every status and listing
//     carries each one's SHA-256.
//   - exec.go: the run functions the table's rows name — one cell
//     runner for the kinds that run a chaos cell, one per sweep.
//     Execution is observation-only by construction — the server
//     adds no inputs to any simulation — and the HTTP≡facade
//     differential matrix at the repository root proves it
//     byte-for-byte.
//   - server.go + client.go: the net/http surface and a minimal
//     client used by tests and the benchmark (whose serve_tiny_jobs
//     workload is the layer's load harness).
//
// Determinism contract: everything a job computes is a pure function
// of its request (plus any referenced artifact bytes). Wall-clock
// time exists only in telemetry — queue-wait and service durations,
// latency histograms — and flows through the perf package's clock
// seam, never into results. Scheduling order, by contrast, is
// deliberately nondeterministic (it depends on arrival order and
// worker availability); the fairness properties the scheduler does
// guarantee are pinned by the property tests in sched_test.go.
package serve
