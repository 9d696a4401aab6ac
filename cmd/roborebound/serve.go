package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"roborebound/internal/serve"
)

// The serve subcommand: simulation-as-a-service. A long-running HTTP
// server exposes every facade (chaos, trace, the figure sweeps, the
// scale differential, snapshot/resume) as submitted jobs behind
// a multi-tenant fair-share scheduler with bounded queues, NDJSON
// progress streams, and an artifact store. See DESIGN.md "Serving
// layer" for the endpoint and tenancy contract.

var (
	serveAddr = flag.String("addr", "127.0.0.1:8080",
		"serve: listen address")
	serveWorkers = flag.Int("workers", 0,
		"serve: scheduler worker pool size (0 = default 2)")
	serveSpillDir = flag.String("spill-dir", "",
		"serve: directory for artifact spillover (empty = keep all artifacts in memory)")
	serveSelftest = flag.Bool("selftest", false,
		"serve: run the HTTP≡facade selftest against an ephemeral loopback server and exit (nonzero on any divergence)")
	serveLoad = flag.Int("load", 0,
		"serve: drive N concurrent load sessions against an ephemeral in-process server, print the latency report, and exit")
	serveDrainSec = flag.Float64("drain-timeout", 30,
		"serve: seconds to wait for running jobs to finish or checkpoint on SIGTERM/SIGINT")
)

// serveFailed mirrors chaosFailed for the serve subcommand.
var serveFailed bool

func serveCmd() {
	switch {
	case *serveSelftest:
		if err := serve.RunSelftest(out); err != nil {
			fmt.Fprintf(os.Stderr, "serve: selftest: %v\n", err)
			serveFailed = true
		}
	case *serveLoad > 0:
		serveLoadCmd()
	default:
		serveListen()
	}
}

// serveLoadCmd runs the load harness against an in-process server and
// prints the per-tenant queue/service/end-to-end split.
func serveLoadCmd() {
	report, err := serve.RunLoad(serve.LoadOptions{
		Sessions: *serveLoad,
		Workers:  *serveWorkers,
		Seed:     *seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: load: %v\n", err)
		serveFailed = true
		return
	}
	fmt.Fprintf(out, "Serve load — %d sessions, %d errors, %.1f sessions/s (%.2fs wall)\n",
		report.Sessions, report.Errors, report.ThroughputPerSec, float64(report.ElapsedNs)/1e9)
	fmt.Fprintf(out, "%-10s %9s | %27s | %27s\n", "tenant", "sessions", "queue p50/p95/p99 (ms)", "service p50/p95/p99 (ms)")
	for _, tl := range report.Tenants {
		q, s := tl.Timing.Queue, tl.Timing.Service
		fmt.Fprintf(out, "%-10s %9d | %8.2f %8.2f %8.2f | %8.2f %8.2f %8.2f\n",
			tl.Tenant, tl.Timing.Sessions,
			q.P50Ns/1e6, q.P95Ns/1e6, q.P99Ns/1e6,
			s.P50Ns/1e6, s.P95Ns/1e6, s.P99Ns/1e6)
	}
	o := report.Overall
	fmt.Fprintf(out, "%-10s %9d | %8.2f %8.2f %8.2f | %8.2f %8.2f %8.2f\n",
		"all", o.Sessions,
		o.Queue.P50Ns/1e6, o.Queue.P95Ns/1e6, o.Queue.P99Ns/1e6,
		o.Service.P50Ns/1e6, o.Service.P95Ns/1e6, o.Service.P99Ns/1e6)
	e := report.EndToEnd
	fmt.Fprintf(out, "end-to-end p50/p95/p99: %.2f / %.2f / %.2f ms\n",
		e.P50Ns/1e6, e.P95Ns/1e6, e.P99Ns/1e6)
	if report.Errors > 0 {
		serveFailed = true
	}
}

// serveListen runs the long-lived server until SIGTERM/SIGINT, then
// drains gracefully: queued jobs are rejected with resubmission
// handles, running jobs finish or checkpoint at a tick boundary.
func serveListen() {
	srv, err := serve.NewServer(serve.ServerOptions{
		Workers:  *serveWorkers,
		SpillDir: *serveSpillDir,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		serveFailed = true
		return
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *serveAddr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		serveFailed = true
		return
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	fmt.Fprintf(out, "roborebound serve listening on http://%s (POST /v1/jobs)\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	got := <-sig
	fmt.Fprintf(out, "serve: %v — draining (timeout %.0fs)\n", got, *serveDrainSec)

	ctx, cancel := context.WithTimeout(context.Background(),
		time.Duration(*serveDrainSec*float64(time.Second)))
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "serve: drain: %v\n", err)
		serveFailed = true
	} else {
		fmt.Fprintln(out, "serve: drained — all running jobs finished or checkpointed")
	}
	hs.Shutdown(context.Background())
}
