package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	rr "roborebound"
	"roborebound/internal/faultinject"
	"roborebound/internal/obs"
)

// Exporter flags, honored by the trace subcommand and (for -events /
// -metrics) by chaos. All three outputs are deterministic: the same
// (scenario, seed) produces byte-identical files.
var (
	eventsOut = flag.String("events", "",
		"write protocol events as NDJSON to this file (trace: full event log; chaos: violating cells' flight-recorder dumps)")
	perfettoOut = flag.String("perfetto", "",
		"write a Chrome trace-event JSON file loadable in Perfetto / chrome://tracing (trace subcommand)")
	metricsOut = flag.String("metrics", "",
		"write the final metrics snapshot as JSON to this file (trace: one run; chaos: summed across cells)")
)

// writeObsFile writes one exporter output, reporting the path on the
// main output stream so tests (and users) see what was produced. It
// reports a failure on stderr and returns false.
func writeObsFile(path, what string, write func(io.Writer) error) bool {
	f, err := os.Create(path)
	if err == nil {
		if err = write(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", what, err)
		return false
	}
	fmt.Fprintf(out, "  wrote %s (%s)\n", path, what)
	return true
}

// traceCmd runs one fully-instrumented scenario and exports its event
// log and metrics. The scenario names match the chaos controllers
// (flocking, patrol, warehouse); the run is the fault-free chaos cell
// for that controller — including its default attacker, so the trace
// shows the full protocol story: audit rounds, token grants, the
// attack, token expiry, and the Safe-Mode kill.
func traceCmd() int {
	scenario := "flocking"
	if flag.NArg() > 1 {
		scenario = flag.Arg(1)
	}
	var durSec float64 // 0: the cell's default length
	if *quick {
		// Long enough to cover the default attack onset (20s) plus the
		// BTI bound, so even a quick trace shows the Safe-Mode kill.
		durSec = 40
	}
	col := obs.NewCollector()
	res := rr.RunChaos(rr.ChaosConfig{
		Controller:  scenario,
		Profile:     faultinject.ProfileNone,
		Seed:        *seed,
		DurationSec: durSec,
		ChaosRun:    rr.ChaosRun{Trace: col},
	})

	byKind := make(map[obs.EventKind]int)
	for _, e := range col.Events() {
		byKind[e.Kind]++
	}
	fmt.Fprintf(out, "trace %s seed=%d: %d events over %.0fs\n",
		scenario, *seed, col.Len(), res.Config.DurationSec)
	// Walk kinds in declaration order; past the last defined kind the
	// name falls back to the numeric "kind-N" form.
	for k := obs.EventKind(1); !strings.HasPrefix(k.String(), "kind-"); k++ {
		if byKind[k] > 0 {
			fmt.Fprintf(out, "  %-24s %6d\n", k.String(), byKind[k])
		}
	}
	exit := 0
	if v := res.Violation; v != nil {
		fmt.Fprintf(out, "  violation: %s\n", v.Error())
		exit = 1
	}

	if *eventsOut != "" && !writeObsFile(*eventsOut, "NDJSON event log", func(w io.Writer) error {
		return obs.WriteNDJSON(w, col.Events())
	}) {
		return 1
	}
	if *perfettoOut != "" && !writeObsFile(*perfettoOut, "Perfetto trace", func(w io.Writer) error {
		return obs.WriteChromeTrace(w, col.Events())
	}) {
		return 1
	}
	if *metricsOut != "" && !writeObsFile(*metricsOut, "metrics snapshot", func(w io.Writer) error {
		return obs.WriteMetricsJSON(w, res.MetricsSnapshot)
	}) {
		return 1
	}
	return exit
}

// chaosObsExports writes the chaos soak's -metrics / -events outputs:
// the per-cell snapshots summed into one registry view, and every
// violating cell's flight-recorder dump (each prefixed with a
// {"cell": ...} marker line, keeping the file valid NDJSON). It
// returns false once a write fails.
func chaosObsExports(results []rr.ChaosResult) bool {
	if *metricsOut != "" {
		snaps := make([][]obs.Sample, len(results))
		for i := range results {
			snaps[i] = results[i].MetricsSnapshot
		}
		if !writeObsFile(*metricsOut, "metrics snapshot (summed over cells)", func(w io.Writer) error {
			return obs.WriteMetricsJSON(w, obs.MergeSnapshots(snaps...))
		}) {
			return false
		}
	}
	if *eventsOut != "" {
		return writeObsFile(*eventsOut, "flight-recorder dumps", func(w io.Writer) error {
			for _, r := range results {
				if r.Violation == nil || len(r.Violation.Events) == 0 {
					continue
				}
				if _, err := fmt.Fprintf(w, "{\"cell\":%q,\"invariant\":%q,\"robot\":%d}\n",
					r.Config.Label(), r.Violation.Invariant, r.Violation.Robot); err != nil {
					return err
				}
				if err := obs.WriteNDJSON(w, r.Violation.Events); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return true
}
