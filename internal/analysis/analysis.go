// Package analysis is a small, dependency-free reimplementation of
// the golang.org/x/tools/go/analysis surface that reboundlint's
// analyzers are written against. The repository builds offline, so we
// cannot vendor x/tools; the subset here — Analyzer, Pass, Diagnostic,
// plus the //rebound: annotation layer — is all four analyzers
// (determinism, trustedboundary, clockdomain, snapshotstate) need, and
// keeps them source-compatible with a future migration to the real
// framework (the Run signature and Report semantics match).
//
// Analyzers in this suite enforce *correctness* contracts, not style:
// RoboRebound's audit protocol is sound only if a robot's logged
// outputs replay bit-for-bit (determinism), if key material never
// leaks out of the trusted s-node/a-node packages (trustedboundary),
// if engine-clock and trusted-clock timestamps never mix
// (clockdomain), and if a snapshot carries every field a resume needs
// (snapshotstate). See DESIGN.md "Static analysis & determinism
// contracts".
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check. It mirrors
// x/tools/go/analysis.Analyzer minus the dependency/fact machinery,
// which this suite does not need (cross-package knowledge travels
// through annotations parsed from source instead).
type Analyzer struct {
	// Name is the short identifier printed in diagnostics and used by
	// reboundlint's -run flag.
	Name string
	// Doc is the one-paragraph description shown by reboundlint -help.
	Doc string
	// Run analyzes one package and reports diagnostics via pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one package's parsed, type-checked state to an
// analyzer, plus the annotation index for the whole load (so an
// analyzer can honor //rebound:clock declarations made in a package it
// is not currently analyzing).
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Annotations holds the //rebound: directives of the files being
	// analyzed, pre-indexed by file and line.
	Annotations *Annotations

	// ModuleFiles maps import path → parsed files for every module
	// package in this load (including this one). Analyzers consult it
	// for cross-package annotations; it is nil-safe (treated as empty).
	ModuleFiles map[string][]*ast.File

	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Suppressed reports whether a finding at pos is silenced by the named
// directive (on the same line, or alone on the line directly above).
// If the directive is present but carries no justification text, the
// suppression is rejected AND a diagnostic demanding a justification
// is emitted — an empty escape hatch is itself a contract violation.
//
// Calling Suppressed marks the directive as used, so analyzers must
// consult it only at sites where a finding would otherwise fire: a
// hatch that never suppresses anything is reported as stale by the
// driver's unused-hatch pass.
func (p *Pass) Suppressed(pos token.Pos, directive string) bool {
	d, ok := p.Annotations.Use(p.Fset.Position(pos), directive)
	if !ok {
		return false
	}
	if d.Arg == "" {
		p.Reportf(pos, "//rebound:%s directive requires a justification comment (//rebound:%s <why>)", directive, directive)
		return true // still suppress the underlying finding: one diagnostic per site
	}
	return true
}
