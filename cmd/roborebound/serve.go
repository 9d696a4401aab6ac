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
// server exposes every facade (chaos, trace, the figure sweeps,
// snapshot/resume) as submitted jobs behind a round-robin multi-tenant
// scheduler with bounded queues, a long-polled job status, and an
// artifact store. See DESIGN.md "Serving layer" for the endpoint and
// tenancy contract.

var (
	serveAddr = flag.String("addr", "127.0.0.1:8080",
		"serve: listen address")
	serveWorkers = flag.Int("workers", 0,
		"serve: scheduler worker pool size (0 = default 2)")
	serveSpillDir = flag.String("spill-dir", "",
		"serve: directory for artifact spillover (empty = keep all artifacts in memory)")
	serveDrainSec = flag.Float64("drain-timeout", 30,
		"serve: seconds to wait for running jobs to finish or checkpoint on SIGTERM/SIGINT")
)

// serveCmd runs the long-lived server until SIGTERM/SIGINT, then
// drains gracefully: queued jobs are rejected with resubmission
// handles, running jobs finish or checkpoint at a tick boundary.
func serveCmd() int {
	srv, err := serve.NewServer(serve.ServerOptions{
		Workers:  *serveWorkers,
		SpillDir: *serveSpillDir,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		return 1
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *serveAddr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		return 1
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
	exit := 0
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "serve: drain: %v\n", err)
		exit = 1
	} else {
		fmt.Fprintln(out, "serve: drained — all running jobs finished or checkpointed")
	}
	hs.Shutdown(context.Background())
	return exit
}
