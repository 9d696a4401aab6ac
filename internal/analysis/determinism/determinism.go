// Package determinism implements the reboundlint analyzer that keeps
// replay-critical code bit-reproducible.
//
// RoboRebound's audit protocol (§3.6–3.7) has auditors re-execute an
// auditee's controller from a checkpoint and compare outputs
// bit-for-bit; the experiment harness additionally pins paper-figure
// outputs across runs and machines. Any hidden source of
// nondeterminism — wall-clock reads, the global math/rand stream, map
// iteration order escaping into state, racy select choices — breaks
// those guarantees silently. PR 1 burned real debugging time on
// map-order-dependent radio delivery; this analyzer makes the whole
// class unrepresentable.
//
// Four checks, each with an annotation escape hatch:
//
//   - wall-clock reads (time.Now, Since, Until, After, AfterFunc,
//     Tick, NewTimer, NewTicker, Sleep): deterministic code takes time
//     as an injected wire.Tick or trusted.Clock. Suppress legitimate
//     timing sites (benchmark measurement, progress reporting) with
//     //rebound:wallclock <why>.
//   - global math/rand (and math/rand/v2) package-level draws: their
//     stream is shared, seedable by anyone, and not covered by Go's
//     compatibility promise. Use roborebound/internal/prng with an
//     explicit seed. Suppress with //rebound:nondet <why>.
//   - range over a map whose iteration order can escape (into logs,
//     wire messages, or retained state): allowed only when the loop
//     body is provably order-insensitive — pure accumulation
//     (x++, x += e), delete of the ranged key, building another map
//     keyed by the range key, or collecting into a slice that the same
//     function later sorts (the wire.SortedIDs pattern).
//     Everything else needs a sort or a //rebound:nondet <why>.
//   - select with more than one ready case: the runtime chooses
//     pseudorandomly, so any multi-case select on a replay path is a
//     race by construction. Suppress with //rebound:nondet <why>.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"

	"roborebound/internal/analysis"
)

// Analyzer is the determinism checker.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, global math/rand, order-escaping map iteration, " +
		"and multi-case selects on replay-critical paths",
	Run: run,
}

// wallClockFuncs are the time package functions that read or depend on
// the host's wall clock or monotonic clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"AfterFunc": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"Sleep": true,
}

// randAllowed are math/rand(/v2) identifiers that do NOT touch the
// global stream: explicit-source constructors and types.
var randAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true,
	"NewChaCha8": true, "Source": true, "Source64": true, "Rand": true,
	"Zipf": true, "PCG": true, "ChaCha8": true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		checkFile(pass, file)
	}
	return nil
}

func checkFile(pass *analysis.Pass, file *ast.File) {
	// Stack of enclosing nodes so a map-range check can find its
	// enclosing function (for the collected-then-sorted pattern).
	var stack []ast.Node
	sortedCache := make(map[ast.Node]map[types.Object]bool)

	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.SelectorExpr:
			checkSelector(pass, n)
		case *ast.SelectStmt:
			checkSelect(pass, n)
		case *ast.RangeStmt:
			checkMapRange(pass, n, stack, sortedCache)
		}
		return true
	})
}

func checkSelector(pass *analysis.Pass, sel *ast.SelectorExpr) {
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pkgName, ok := pass.TypesInfo.Uses[ident].(*types.PkgName)
	if !ok {
		return
	}
	switch pkgName.Imported().Path() {
	case "time":
		if wallClockFuncs[sel.Sel.Name] && !pass.Suppressed(sel.Pos(), analysis.DirWallclock) {
			pass.Reportf(sel.Pos(),
				"wall-clock read time.%s on a replay-critical path: inject a clock (wire.Tick / trusted.Clock) or annotate //rebound:wallclock <why>",
				sel.Sel.Name)
		}
	case "math/rand", "math/rand/v2":
		if !randAllowed[sel.Sel.Name] && !pass.Suppressed(sel.Pos(), analysis.DirNondet) {
			pass.Reportf(sel.Pos(),
				"global math/rand draw rand.%s: the shared stream is nondeterministic across builds; use roborebound/internal/prng with an explicit seed or annotate //rebound:nondet <why>",
				sel.Sel.Name)
		}
	}
}

func checkSelect(pass *analysis.Pass, sel *ast.SelectStmt) {
	if len(sel.Body.List) < 2 {
		return // single blocking case: deterministic
	}
	if pass.Suppressed(sel.Pos(), analysis.DirNondet) {
		return
	}
	pass.Reportf(sel.Pos(),
		"select with %d cases chooses pseudorandomly among ready channels; replay-critical code must not race — restructure or annotate //rebound:nondet <why>",
		len(sel.Body.List))
}

func checkMapRange(pass *analysis.Pass, rs *ast.RangeStmt, stack []ast.Node, sortedCache map[ast.Node]map[types.Object]bool) {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	// `for range m` runs indistinguishable iterations: order cannot
	// be observed.
	if rs.Key == nil && rs.Value == nil {
		return
	}

	if orderInsensitive(pass, rs, enclosingFunc(stack), sortedCache) {
		return
	}
	// The hatch is consulted only after the body check fails, so a
	// nondet hatch on a provably order-insensitive loop counts as
	// unused (stale) rather than silently "suppressing" nothing.
	if pass.Suppressed(rs.Pos(), analysis.DirNondet) {
		return
	}
	pass.Reportf(rs.Pos(),
		"map iteration order may escape (body is not provably order-insensitive): collect keys and sort before use, or annotate //rebound:nondet <why>")
}

// orderInsensitive reports whether the body of a range over a map is
// provably order-insensitive (pure accumulation, delete of the ranged
// key, map builds keyed by the range key, collect-then-sort appends,
// loop-local writes). fn is the enclosing function node (for the
// collected-then-sorted pattern); sortedCache memoizes its sorted-
// slice scan and is shared across calls within one file walk.
func orderInsensitive(pass *analysis.Pass, rs *ast.RangeStmt, fn ast.Node, sortedCache map[ast.Node]map[types.Object]bool) bool {
	sorted := sortedCache[fn]
	if sorted == nil {
		sorted = sortedSlices(pass, fn)
		sortedCache[fn] = sorted
	}
	chk := &bodyChecker{
		pass:      pass,
		rangeKeys: rangeVarObjs(pass, rs),
		mapObj:    rootObj(pass, rs.X),
		sorted:    sorted,
		loop:      rs,
	}
	return chk.stmtsOK(rs.Body.List)
}

// bodyChecker decides whether a map-range body is order-insensitive.
type bodyChecker struct {
	pass      *analysis.Pass
	rangeKeys map[types.Object]bool
	mapObj    types.Object
	sorted    map[types.Object]bool
	loop      *ast.RangeStmt
}

func (c *bodyChecker) stmtsOK(stmts []ast.Stmt) bool {
	for _, s := range stmts {
		if !c.stmtOK(s) {
			return false
		}
	}
	return true
}

func (c *bodyChecker) stmtOK(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.EmptyStmt:
		return true
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE || s.Tok == token.BREAK
	case *ast.IncDecStmt:
		// Counting iterations or accumulating: commutative.
		return c.callFree(s.X)
	case *ast.ExprStmt:
		// Only delete(m, k) of the ranged map.
		call, ok := s.X.(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return false
		}
		if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "delete" {
			return false
		}
		return c.mapObj != nil && rootObj(c.pass, call.Args[0]) == c.mapObj
	case *ast.AssignStmt:
		return c.assignOK(s)
	case *ast.IfStmt:
		if s.Init != nil && !c.stmtOK(s.Init) {
			return false
		}
		if !c.callFree(s.Cond) || !c.stmtsOK(s.Body.List) {
			return false
		}
		return s.Else == nil || c.stmtOK(s.Else)
	case *ast.BlockStmt:
		return c.stmtsOK(s.List)
	case *ast.ForStmt:
		if s.Init != nil && !c.stmtOK(s.Init) {
			return false
		}
		if s.Cond != nil && !c.callFree(s.Cond) {
			return false
		}
		if s.Post != nil && !c.stmtOK(s.Post) {
			return false
		}
		return c.stmtsOK(s.Body.List)
	case *ast.RangeStmt:
		// A nested map range is checked on its own visit; here we only
		// ask whether the nested body keeps the OUTER order invisible.
		return c.callFree(s.X) && c.stmtsOK(s.Body.List)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return false
		}
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				for _, v := range vs.Values {
					if !c.callFree(v) {
						return false
					}
				}
			}
		}
		return true
	default:
		return false
	}
}

// assignOK accepts commutative accumulation, map-builds keyed by the
// range key, collect-then-sort appends, and writes to loop-local
// variables.
func (c *bodyChecker) assignOK(a *ast.AssignStmt) bool {
	switch a.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		for _, e := range a.Rhs {
			if !c.callFree(e) {
				return false
			}
		}
		for _, e := range a.Lhs {
			if !c.callFree(e) {
				return false
			}
		}
		return true
	case token.ASSIGN, token.DEFINE:
		if len(a.Lhs) != len(a.Rhs) && len(a.Rhs) != 1 {
			return false
		}
		for i, lhs := range a.Lhs {
			var rhs ast.Expr
			if i < len(a.Rhs) {
				rhs = a.Rhs[i]
			} else {
				rhs = a.Rhs[0]
			}
			if !c.singleAssignOK(lhs, rhs) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

func (c *bodyChecker) singleAssignOK(lhs, rhs ast.Expr) bool {
	// s = append(s, ...) where s is later sorted, or s lives inside
	// the loop.
	if call, ok := rhs.(*ast.CallExpr); ok {
		if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "append" {
			obj := rootObj(c.pass, lhs)
			if obj == nil || obj != rootObj(c.pass, call.Args[0]) {
				return false
			}
			for _, arg := range call.Args[1:] {
				if !c.callFree(arg) {
					return false
				}
			}
			return c.sorted[obj] || c.declaredInLoop(obj)
		}
	}
	if !c.callFree(rhs) {
		return false
	}
	switch lhs := lhs.(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return true
		}
		obj := identObj(c.pass, lhs)
		// Writes to loop-local variables die with the iteration.
		return obj != nil && c.declaredInLoop(obj)
	case *ast.IndexExpr:
		// m2[k] = v keyed by the range key: map keys are distinct, so
		// write order is invisible.
		if idx, ok := lhs.Index.(*ast.Ident); ok {
			if obj := identObj(c.pass, idx); obj != nil && c.rangeKeys[obj] {
				if _, isMap := c.pass.TypesInfo.Types[lhs.X].Type.Underlying().(*types.Map); isMap {
					return c.callFree(lhs.X)
				}
			}
		}
		return false
	default:
		return false
	}
}

// callFree reports that e contains no calls except builtin len/cap/
// min/max and type conversions — i.e. evaluating it cannot have
// order-dependent side effects.
func (c *bodyChecker) callFree(e ast.Expr) bool {
	ok := true
	ast.Inspect(e, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		if tv, found := c.pass.TypesInfo.Types[call.Fun]; found && tv.IsType() {
			return true // conversion
		}
		if fn, isIdent := call.Fun.(*ast.Ident); isIdent {
			switch fn.Name {
			case "len", "cap", "min", "max":
				if _, isBuiltin := c.pass.TypesInfo.Uses[fn].(*types.Builtin); isBuiltin {
					return true
				}
			}
		}
		ok = false
		return false
	})
	return ok
}

func (c *bodyChecker) declaredInLoop(obj types.Object) bool {
	return obj.Pos() >= c.loop.Body.Pos() && obj.Pos() <= c.loop.Body.End()
}

// sortedSlices collects the root objects of every slice passed to a
// sort.* / slices.* sorting call anywhere in fn.
func sortedSlices(pass *analysis.Pass, fn ast.Node) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if fn == nil {
		return out
	}
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgIdent, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pkgName, ok := pass.TypesInfo.Uses[pkgIdent].(*types.PkgName)
		if !ok {
			return true
		}
		switch pkgName.Imported().Path() {
		case "sort", "slices":
		default:
			return true
		}
		if obj := rootObj(pass, call.Args[0]); obj != nil {
			out[obj] = true
		}
		return true
	})
	return out
}

func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

func rangeVarObjs(pass *analysis.Pass, rs *ast.RangeStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if ident, ok := e.(*ast.Ident); ok {
			if obj := identObj(pass, ident); obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

func identObj(pass *analysis.Pass, ident *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Defs[ident]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[ident]
}

// rootObj resolves e to the object of its base identifier: x, x.f,
// x[i], *x, &x all root at x.
func rootObj(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return identObj(pass, x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
