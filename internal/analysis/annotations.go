package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The //rebound: directive namespace. Directives are machine-checked
// comments in the style of //go:build — no space after the slashes,
// a directive name, then free text (usually a justification or a
// domain declaration):
//
//	start := time.Now() //rebound:wallclock progress reporting only
//	//rebound:nondet key order irrelevant: results re-sorted below
//	for k := range m { ... }
//
// Suppression directives (wallclock, nondet, tcb-exempt, clockmix)
// MUST carry a justification; a bare directive is reported as a
// violation of its own. Declaration directives (clock) carry a
// domain specification instead — see the clockdomain analyzer.
const (
	// DirWallclock silences determinism findings about wall-clock
	// reads (time.Now and friends) at a legitimately timing-dependent
	// site, e.g. microbenchmark measurement or progress reporting.
	DirWallclock = "wallclock"
	// DirNondet silences determinism findings about nondeterministic
	// iteration/selection (map range, select, global rand) where the
	// surrounding code is order-insensitive for reasons the analyzer
	// cannot prove.
	DirNondet = "nondet"
	// DirTCBExempt silences trustedboundary findings for a use of
	// restricted key material or a restricted import that is justified
	// (e.g. owner-side provisioning code, host-side benchmarks).
	DirTCBExempt = "tcb-exempt"
	// DirClockMix silences clockdomain findings where mixing engine
	// and trusted clocks is intentional (e.g. fault-injection code
	// that *implements* clock skew).
	DirClockMix = "clockmix"
	// DirClock declares the clock domain of a declaration. Forms:
	//
	//	field/var/type:  //rebound:clock engine|trusted
	//	func doc:        //rebound:clock <param>=engine [<param>=trusted ...]
	//	                 //rebound:clock return=trusted
	DirClock = "clock"
	// DirSnapshotSkip declares a struct field exempt from snapshot
	// codec coverage (rebuild/scratch state): the snapshotstate
	// analyzer requires every field of a codec struct to be referenced
	// by the codec pair or carry this directive with a justification.
	DirSnapshotSkip = "snapshot-skip"
	// DirBounded silences snapshotstate findings about a decoder count
	// used as an allocation size without a visible bound against the
	// remaining payload (for counts bounded by other means).
	DirBounded = "bounded"
)

// KnownDirectives is the set of every directive name the suite
// understands; the driver flags any //rebound: comment whose name is
// not in it (a typo'd directive would otherwise silently suppress
// nothing).
var KnownDirectives = map[string]bool{
	DirWallclock: true, DirNondet: true, DirTCBExempt: true,
	DirClockMix: true, DirClock: true,
	DirSnapshotSkip: true, DirBounded: true,
}

// SuppressionOwner maps each suppression (escape-hatch) directive to
// the analyzer that consumes it. The driver reports a hatch that
// suppressed zero findings as a finding of its own — but only when the
// owning analyzer actually ran, so -run=determinism does not condemn
// every tcb-exempt hatch in sight. The declaration directive (clock)
// is not a hatch and is absent here.
var SuppressionOwner = map[string]string{
	DirWallclock:    "determinism",
	DirNondet:       "determinism",
	DirTCBExempt:    "trustedboundary",
	DirClockMix:     "clockdomain",
	DirSnapshotSkip: "snapshotstate",
	DirBounded:      "snapshotstate",
}

const directivePrefix = "//rebound:"

// Directive is one parsed //rebound: comment.
type Directive struct {
	Name string // e.g. "wallclock"
	Arg  string // text after the name, trimmed; "" if none
	Pos  token.Position
}

// Annotations indexes every //rebound: directive of a set of files by
// (filename, line) for suppression lookups, and tracks which
// suppression directives actually suppressed a finding (the rest are
// stale hatches the driver reports).
type Annotations struct {
	byLine map[string]map[int][]*trackedDirective
	all    []*trackedDirective
}

type trackedDirective struct {
	Directive
	used bool
}

// ParseAnnotations scans all comments (including end-of-line comments)
// of files for //rebound: directives.
func ParseAnnotations(fset *token.FileSet, files []*ast.File) *Annotations {
	a := &Annotations{byLine: make(map[string]map[int][]*trackedDirective)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				d.Pos = fset.Position(c.Pos())
				td := &trackedDirective{Directive: d}
				lines := a.byLine[d.Pos.Filename]
				if lines == nil {
					lines = make(map[int][]*trackedDirective)
					a.byLine[d.Pos.Filename] = lines
				}
				lines[d.Pos.Line] = append(lines[d.Pos.Line], td)
				a.all = append(a.all, td)
			}
		}
	}
	return a
}

func parseDirective(text string) (Directive, bool) {
	if !strings.HasPrefix(text, directivePrefix) {
		return Directive{}, false
	}
	rest := text[len(directivePrefix):]
	name := rest
	arg := ""
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		name, arg = rest[:i], strings.TrimSpace(rest[i+1:])
	}
	if name == "" {
		return Directive{}, false
	}
	return Directive{Name: name, Arg: arg}, true
}

// At returns the named directive governing a finding at pos: one on
// the same line, or one on the line immediately above (the standard
// lint-suppression placement).
func (a *Annotations) At(pos token.Position, name string) (Directive, bool) {
	if td := a.lookup(pos, name); td != nil {
		return td.Directive, true
	}
	return Directive{}, false
}

// Use is At plus usage accounting: the returned directive is marked as
// having suppressed a finding, so it does not surface in Unused.
// Analyzers call it (via Pass.Suppressed) only at sites where a
// finding would otherwise fire — a hatch on an already-clean line
// stays unused and is reported as stale.
func (a *Annotations) Use(pos token.Position, name string) (Directive, bool) {
	if td := a.lookup(pos, name); td != nil {
		td.used = true
		return td.Directive, true
	}
	return Directive{}, false
}

func (a *Annotations) lookup(pos token.Position, name string) *trackedDirective {
	lines := a.byLine[pos.Filename]
	if lines == nil {
		return nil
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, d := range lines[line] {
			if d.Name == name {
				return d
			}
		}
	}
	return nil
}

// Unused returns every directive whose name is in names that never
// suppressed a finding, in source order. The driver passes the
// suppression directives owned by the analyzers that ran.
func (a *Annotations) Unused(names map[string]bool) []Directive {
	var out []Directive
	for _, td := range a.all {
		if names[td.Name] && !td.used {
			out = append(out, td.Directive)
		}
	}
	return out
}

// Unknown returns every parsed directive whose name is not a known
// directive (a typo would otherwise silently suppress nothing), in
// source order.
func (a *Annotations) Unknown() []Directive {
	var out []Directive
	for _, td := range a.all {
		if !KnownDirectives[td.Name] {
			out = append(out, td.Directive)
		}
	}
	return out
}

// ClockDomains extracts clock-domain declarations from the given
// package's files. Keys are stable strings resolvable from the types
// world when analyzing *other* packages:
//
//	<pkgpath>.<TypeName>              named type (calls to values of a
//	                                  func type, or values of the type)
//	<pkgpath>.<TypeName>.<Field>      struct field
//	<pkgpath>.<VarName>               package-level var
//	<pkgpath>.<Func>#return           function result
//	<pkgpath>.<Recv>.<Func>#return    method result
//	<pkgpath>.<Func>#<param>          function parameter
//	<pkgpath>.<Recv>.<Func>#<param>   method parameter
//
// Values are the domain strings ("engine" or "trusted"). Malformed
// declarations are reported via report (may be nil to ignore).
func ClockDomains(fset *token.FileSet, pkgPath string, files []*ast.File, report func(pos token.Pos, msg string)) map[string]string {
	idx := make(map[string]string)
	bad := func(pos token.Pos, msg string) {
		if report != nil {
			report(pos, msg)
		}
	}
	directiveOf := func(doc *ast.CommentGroup, end token.Pos, f *ast.File) (Directive, token.Pos, bool) {
		return DeclDirective(fset, f, doc, end, DirClock)
	}
	domainArg := func(d Directive, pos token.Pos) (string, bool) {
		if d.Arg == DomainEngine || d.Arg == DomainTrusted {
			return d.Arg, true
		}
		bad(pos, "//rebound:clock on a declaration takes a bare domain: engine or trusted")
		return "", false
	}

	for _, f := range files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				key := pkgPath + "."
				if decl.Recv != nil && len(decl.Recv.List) == 1 {
					key += recvBaseName(decl.Recv.List[0].Type) + "."
				}
				key += decl.Name.Name
				d, pos, ok := directiveOf(decl.Doc, decl.Type.End(), f)
				if !ok {
					continue
				}
				// Function form: space-separated name=domain pairs;
				// "return" names the (single) result.
				for _, pair := range strings.Fields(d.Arg) {
					eq := strings.IndexByte(pair, '=')
					if eq <= 0 {
						bad(pos, "//rebound:clock on a func takes name=domain pairs (e.g. now=engine, return=trusted)")
						continue
					}
					name, dom := pair[:eq], pair[eq+1:]
					if dom != DomainEngine && dom != DomainTrusted {
						bad(pos, "unknown clock domain "+dom+" (want engine or trusted)")
						continue
					}
					idx[key+"#"+name] = dom
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						d, pos, ok := directiveOf(firstDoc(decl.Doc, spec.Doc), spec.End(), f)
						if !ok {
							continue
						}
						if dom, ok := domainArg(d, pos); ok {
							idx[pkgPath+"."+spec.Name.Name] = dom
						}
					case *ast.ValueSpec:
						d, pos, ok := directiveOf(firstDoc(decl.Doc, spec.Doc), spec.End(), f)
						if !ok {
							continue
						}
						dom, ok := domainArg(d, pos)
						if !ok {
							continue
						}
						for _, n := range spec.Names {
							idx[pkgPath+"."+n.Name] = dom
						}
					}
				}
			}
		}
		// Struct fields: walk all struct types (named or not; only
		// named ones get usable keys).
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				d, pos, ok := directiveOf(field.Doc, field.End(), f)
				if !ok {
					continue
				}
				dom, ok := domainArg(d, pos)
				if !ok {
					continue
				}
				for _, name := range field.Names {
					idx[pkgPath+"."+ts.Name.Name+"."+name.Name] = dom
				}
			}
			return false
		})
	}
	return idx
}

// DeclDirective returns the named directive attached to a declaration:
// one in its doc comment, or one in an end-of-line comment on the line
// where the declaration (for functions: its signature) ends. This is
// the lookup every declaration directive (clock, snapshot-skip on
// fields) shares.
func DeclDirective(fset *token.FileSet, f *ast.File, doc *ast.CommentGroup, end token.Pos, name string) (Directive, token.Pos, bool) {
	if doc != nil {
		for _, c := range doc.List {
			if d, ok := parseDirective(c.Text); ok && d.Name == name {
				d.Pos = fset.Position(c.Pos())
				return d, c.Pos(), true
			}
		}
	}
	endLine := fset.Position(end).Line
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if fset.Position(c.Pos()).Line != endLine || c.Pos() < end {
				continue
			}
			if d, ok := parseDirective(c.Text); ok && d.Name == name {
				d.Pos = fset.Position(c.Pos())
				return d, c.Pos(), true
			}
		}
	}
	return Directive{}, token.NoPos, false
}

// Clock domain names.
const (
	DomainEngine  = "engine"
	DomainTrusted = "trusted"
)

func firstDoc(groups ...*ast.CommentGroup) *ast.CommentGroup {
	for _, g := range groups {
		if g != nil {
			return g
		}
	}
	return nil
}

func recvBaseName(t ast.Expr) string {
	for {
		switch e := t.(type) {
		case *ast.StarExpr:
			t = e.X
		case *ast.IndexExpr: // generic receiver
			t = e.X
		case *ast.IndexListExpr:
			t = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
