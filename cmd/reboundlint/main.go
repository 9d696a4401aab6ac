// Command reboundlint is the multichecker for RoboRebound's four custom
// static analyzers. It runs alongside `go vet` in `make lint` / CI and
// fails the build on any violation of the repository's correctness
// contracts:
//
//	determinism      replay-critical code is bit-reproducible: no
//	                 wall-clock reads, no global math/rand, no
//	                 order-escaping map iteration, no racy selects
//	trustedboundary  the s-node/a-node TCB import DAG: key material
//	                 stays in internal/trusted, c-node code never
//	                 reaches the radio or simulator directly
//	clockdomain      engine-clock and trusted-clock wire.Tick values
//	                 never mix (the PR 2 bug class)
//	snapshotstate    every field reachable from a snapshot codec is
//	                 serialized or justified //rebound:snapshot-skip,
//	                 and decoder counts are bounded before allocation
//	                 (the PR 7 resume-divergence bug class)
//
// On top of the selected analyzers, every run audits the //rebound:
// annotations themselves: a suppression hatch that suppresses nothing
// is reported (stale hatches rot into false confidence), as is any
// unknown //rebound: directive (typos silently disable suppression).
// These findings carry the synthetic analyzer name "annotations".
//
// Usage:
//
//	reboundlint [-run=determinism,...] [-list] [packages]
//
// Packages default to ./... . Exit status: 0 clean, 1 diagnostics
// reported, 2 analysis failure. Findings print as
// "file:line:col: message [analyzer]", which
// .github/reboundlint-problem-matcher.json turns into GitHub code
// annotations. Each analyzer documents an annotation escape hatch
// (//rebound:wallclock, //rebound:nondet, //rebound:tcb-exempt,
// //rebound:clockmix, //rebound:snapshot-skip, //rebound:bounded) that
// requires a justification; see DESIGN.md "Static analysis &
// determinism contracts".
package main

import (
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"sort"
	"strings"

	"roborebound/internal/analysis"
	"roborebound/internal/analysis/clockdomain"
	"roborebound/internal/analysis/determinism"
	"roborebound/internal/analysis/load"
	"roborebound/internal/analysis/snapshotstate"
	"roborebound/internal/analysis/trustedboundary"
)

var analyzers = []*analysis.Analyzer{
	determinism.Analyzer,
	trustedboundary.Analyzer,
	clockdomain.Analyzer,
	snapshotstate.Analyzer,
}

// annotationsName labels the driver's own findings about the
// //rebound: directives themselves (stale hatches, unknown names).
const annotationsName = "annotations"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reboundlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runNames := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list available analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: reboundlint [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(stderr, "  %-16s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stderr, "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%s: %s\n", a.Name, a.Doc)
		}
		return 0
	}

	selected := analyzers
	if *runNames != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		selected = nil
		for _, name := range strings.Split(*runNames, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "reboundlint: unknown analyzer %q\n", name)
				return 2
			}
			selected = append(selected, a)
		}
	}

	// Hatches owned by a deselected analyzer cannot be judged unused:
	// the pass that would have consumed them never ran.
	auditable := make(map[string]bool)
	for _, a := range selected {
		for dir, owner := range analysis.SuppressionOwner {
			if owner == a.Name {
				auditable[dir] = true
			}
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	res, err := load.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "reboundlint: %v\n", err)
		return 2
	}

	type finding struct {
		analyzer string
		pos      token.Position
		message  string
	}
	var findings []finding
	for _, pkg := range res.Targets {
		ann := analysis.ParseAnnotations(pkg.Fset, pkg.Files)
		for _, a := range selected {
			pass := &analysis.Pass{
				Analyzer:    a,
				Fset:        pkg.Fset,
				Files:       pkg.Files,
				Pkg:         pkg.Types,
				TypesInfo:   pkg.Info,
				Annotations: ann,
				ModuleFiles: res.ModuleFiles,
			}
			name := a.Name
			fset := pkg.Fset
			pass.Report = func(d analysis.Diagnostic) {
				findings = append(findings, finding{analyzer: name, pos: fset.Position(d.Pos), message: d.Message})
			}
			if err := a.Run(pass); err != nil {
				fmt.Fprintf(stderr, "reboundlint: %s on %s: %v\n", a.Name, pkg.ImportPath, err)
				return 2
			}
		}
		// Audit the annotations themselves after every selected
		// analyzer had its chance to consume them.
		for _, d := range ann.Unused(auditable) {
			findings = append(findings, finding{analyzer: annotationsName, pos: d.Pos,
				message: fmt.Sprintf("//rebound:%s hatch suppresses nothing (no %s finding fires here): delete the stale hatch",
					d.Name, analysis.SuppressionOwner[d.Name])})
		}
		for _, d := range ann.Unknown() {
			findings = append(findings, finding{analyzer: annotationsName, pos: d.Pos,
				message: fmt.Sprintf("unknown directive //rebound:%s: misspelled hatches suppress nothing", d.Name)})
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		pi, pj := findings[i].pos, findings[j].pos
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return findings[i].analyzer < findings[j].analyzer
	})
	for _, f := range findings {
		fmt.Fprintf(stdout, "%s: %s [%s]\n", f.pos, f.message, f.analyzer)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "reboundlint: %d violation(s)\n", len(findings))
		return 1
	}
	return 0
}
