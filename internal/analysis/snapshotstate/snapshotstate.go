// Package snapshotstate implements the reboundlint analyzer that pins
// the snapshot codec surface statically.
//
// RoboRebound's snapshot/restore layer (PR 7) follows rebuild-then-
// apply: every struct with an EncodeState/RestoreState pair carries
// its tick-mutable state in the blob and re-derives the rest from the
// run configuration. The failure mode is silent: a field added to a
// snapshotted struct but forgotten by its codec does not break any
// round-trip test — it breaks resume *equivalence*, and only on runs
// whose seed happens to exercise the field. The runtime reflection
// guard (internal/snapshot/guard_test.go) catches this only when its
// pinned field lists are maintained; this analyzer moves the check to
// `make lint`, where it fails on any build.
//
// Two checks:
//
//   - Codec field coverage: for every package, structs with both an
//     EncodeState and a RestoreState method are codec roots. The
//     analyzer computes the same-package call closure of all codec
//     functions and the set of struct fields it references (selector
//     chains, including paths through embedded fields, and composite-
//     literal keys). Every field of a root struct — and of any same-
//     package struct reachable from one through fields, pointers,
//     slices, arrays, and maps — must be referenced by that closure or
//     carry a //rebound:snapshot-skip <why> directive marking it as
//     rebuild/scratch state. A skip on a field the codec does
//     reference is a stale hatch, reported by the driver's unused-
//     hatch pass. Reference-by-the-closure is an approximation of
//     "serialized" (a helper that merely inspects a field credits it),
//     but it is exactly the approximation that catches the dodged-
//     field bug class.
//
//   - Decoder counts: a U16/U32/U64 read from a wire.Reader (possibly
//     through conversions, directly or through a variable) that sizes
//     a make() is a finding. wire.Reader.Count, which bounds a count by
//     the bytes left, is the one sanctioned source of an allocation
//     size; a hostile snapshot blob otherwise turns a four-byte count
//     into a multi-gigabyte allocation. The rule has no hatch. (U8
//     counts are exempt: 255 of anything is not an allocation attack.)
package snapshotstate

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"

	"roborebound/internal/analysis"
	"roborebound/internal/analysis/load"
)

// Analyzer is the snapshot codec surface checker.
var Analyzer = &analysis.Analyzer{
	Name: "snapshotstate",
	Doc: "require every field of a snapshotted struct to be referenced by its " +
		"EncodeState/RestoreState codec (or be annotated rebuild/scratch state), " +
		"and every decoder allocation to be sized through wire.Reader.Count",
	Run: run,
}

func run(pass *analysis.Pass) error {
	s := compute(pass)
	for _, ts := range s.tracked {
		for _, f := range ts.fields {
			switch {
			case f.covered:
				// A stale snapshot-skip on a covered field surfaces via
				// the driver's unused-hatch pass (the directive never
				// suppresses anything).
			case f.skip != nil:
				// Mark the hatch used; demand a justification.
				pass.Annotations.Use(f.skip.Pos, analysis.DirSnapshotSkip)
				if f.skip.Arg == "" {
					pass.Report(analysis.Diagnostic{
						Pos: f.decl.Pos(),
						Message: "//rebound:snapshot-skip directive requires a justification comment " +
							"(//rebound:snapshot-skip <why>)",
					})
				}
			default:
				pass.Reportf(f.decl.Pos(),
					"field %s.%s is not referenced by the package's snapshot codec "+
						"(EncodeState/RestoreState closure): serialize it or annotate "+
						"//rebound:snapshot-skip <why> if it is rebuild/scratch state",
					ts.named.Obj().Name(), f.v.Name())
			}
		}
	}
	checkDecoderBounds(pass)
	return nil
}

// trackedStruct is one struct whose snapshot coverage is enforced.
type trackedStruct struct {
	named  *types.Named
	fields []fieldInfo
}

type fieldInfo struct {
	v       *types.Var
	decl    *ast.Field
	covered bool
	skip    *analysis.Directive
}

type surface struct {
	tracked []trackedStruct
}

// compute builds the package's codec surface: roots, closure,
// referenced fields, tracked structs.
func compute(pass *analysis.Pass) *surface {
	// All function declarations of the package, by object.
	funcs := make(map[*types.Func]*ast.FuncDecl)
	// Methods of named types, by receiver and name.
	methods := make(map[*types.Named]map[string]*types.Func)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			funcs[obj] = fd
			if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
				if named, ok := deref(recv.Type()).(*types.Named); ok {
					m := methods[named]
					if m == nil {
						m = make(map[string]*types.Func)
						methods[named] = m
					}
					m[obj.Name()] = obj
				}
			}
		}
	}

	// Codec roots: named structs with both halves of the pair.
	// (Iterate the method index in declaration order, not map order.)
	withMethods := make([]*types.Named, 0, len(methods))
	for named := range methods {
		withMethods = append(withMethods, named)
	}
	sort.Slice(withMethods, func(i, j int) bool { return withMethods[i].Obj().Pos() < withMethods[j].Obj().Pos() })
	var roots []*types.Named
	var work []*types.Func
	for _, named := range withMethods {
		m := methods[named]
		enc, rest := m["EncodeState"], m["RestoreState"]
		if enc == nil || rest == nil {
			continue
		}
		if _, ok := named.Underlying().(*types.Struct); !ok {
			continue
		}
		roots = append(roots, named)
		work = append(work, enc, rest)
	}
	if len(roots) == 0 {
		return &surface{}
	}

	// Same-package call closure of the codec pair.
	closure := make(map[*types.Func]bool)
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		if closure[fn] {
			continue
		}
		closure[fn] = true
		fd := funcs[fn]
		if fd == nil || fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var callee types.Object
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				callee = pass.TypesInfo.Uses[fun]
			case *ast.SelectorExpr:
				callee = pass.TypesInfo.Uses[fun.Sel]
			}
			if f, ok := callee.(*types.Func); ok {
				if _, inPkg := funcs[f]; inPkg && !closure[f] {
					work = append(work, f)
				}
			}
			return true
		})
	}

	// Fields referenced anywhere in the closure: selector paths
	// (crediting embedded hops) and composite-literal keys.
	covered := make(map[*types.Var]bool)
	creditPath := func(recv types.Type, index []int) {
		t := recv
		for _, i := range index {
			st, ok := deref(t).Underlying().(*types.Struct)
			if !ok || i >= st.NumFields() {
				return
			}
			f := st.Field(i)
			covered[f] = true
			t = f.Type()
		}
	}
	closureFns := make([]*types.Func, 0, len(closure))
	for fn := range closure {
		closureFns = append(closureFns, fn)
	}
	sort.Slice(closureFns, func(i, j int) bool { return closureFns[i].Pos() < closureFns[j].Pos() })
	for _, fn := range closureFns {
		fd := funcs[fn]
		if fd == nil || fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sel, ok := pass.TypesInfo.Selections[n]
				if !ok {
					return true
				}
				index := sel.Index()
				if sel.Kind() != types.FieldVal {
					// Method selection: the trailing index picks the
					// method, the leading ones are embedded fields.
					index = index[:len(index)-1]
				}
				creditPath(sel.Recv(), index)
			case *ast.CompositeLit:
				tv, ok := pass.TypesInfo.Types[n]
				if !ok {
					return true
				}
				st, ok := deref(tv.Type).Underlying().(*types.Struct)
				if !ok {
					return true
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							if f, ok := pass.TypesInfo.Uses[key].(*types.Var); ok {
								covered[f] = true
							}
						}
					} else if i < st.NumFields() {
						covered[st.Field(i)] = true
					}
				}
			}
			return true
		})
	}

	// Field declarations and their snapshot-skip directives.
	fieldDecl := make(map[*types.Var]*ast.Field)
	fieldSkip := make(map[*types.Var]*analysis.Directive)
	structDecl := make(map[*types.Named]bool)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
			if !ok {
				return true
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				return true
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			astStruct, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			structDecl[named] = true
			idx := 0
			for _, af := range astStruct.Fields.List {
				n := len(af.Names)
				if n == 0 {
					n = 1 // embedded
				}
				for j := 0; j < n && idx < st.NumFields(); j++ {
					fv := st.Field(idx)
					idx++
					fieldDecl[fv] = af
					if d, _, ok := analysis.DeclDirective(pass.Fset, file, af.Doc, af.End(), analysis.DirSnapshotSkip); ok {
						dd := d
						fieldSkip[fv] = &dd
					}
				}
			}
			return false
		})
	}

	// Tracked structs: roots plus same-package structs reachable from
	// them through non-skipped fields.
	trackedSet := make(map[*types.Named]bool)
	var order []*types.Named
	var addType func(t types.Type)
	addType = func(t types.Type) {
		switch t := t.(type) {
		case *types.Pointer:
			addType(t.Elem())
		case *types.Slice:
			addType(t.Elem())
		case *types.Array:
			addType(t.Elem())
		case *types.Map:
			addType(t.Key())
			addType(t.Elem())
		case *types.Named:
			if t.Obj().Pkg() != pass.Pkg || trackedSet[t] || !structDecl[t] {
				return
			}
			trackedSet[t] = true
			order = append(order, t)
			st := t.Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if fieldSkip[f] != nil {
					continue // skipped fields gate the walk too
				}
				addType(f.Type())
			}
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Obj().Pos() < roots[j].Obj().Pos() })
	for _, r := range roots {
		addType(r)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].Obj().Pos() < order[j].Obj().Pos() })

	s := &surface{}
	for _, named := range order {
		ts := trackedStruct{named: named}
		st := named.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			decl := fieldDecl[f]
			if decl == nil {
				continue
			}
			ts.fields = append(ts.fields, fieldInfo{
				v:       f,
				decl:    decl,
				covered: covered[f],
				skip:    fieldSkip[f],
			})
		}
		s.tracked = append(s.tracked, ts)
	}
	return s
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// --- decoder count bounds ---

// readerCountReads are the wire.Reader methods whose result can drive
// an allocation attack. U8 is exempt (bounded by 255 by construction).
var readerCountReads = map[string]bool{"U16": true, "U32": true, "U64": true}

func isWireReader(t types.Type) bool {
	named, ok := deref(t).(*types.Named)
	if !ok || named.Obj().Name() != "Reader" {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && (pkg.Path() == "roborebound/internal/wire" ||
		pkg.Path() == "internal/wire")
}

func checkDecoderBounds(pass *analysis.Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// The wire.Reader primitives themselves are the bound's
			// implementation, not its clients.
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				if recv := obj.Type().(*types.Signature).Recv(); recv != nil && isWireReader(recv.Type()) {
					continue
				}
			}
			checkFuncBounds(pass, fd)
		}
	}
}

func checkFuncBounds(pass *analysis.Pass, fd *ast.FuncDecl) {
	// Variables assigned from a reader count read.
	counts := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || !isCountRead(pass, as.Rhs[i]) {
				continue
			}
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
				counts[obj] = true
			}
		}
		return true
	})

	// make() sizes that hold such a read or such a variable.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return true
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "make" {
			return true
		}
		if _, isBuiltin := pass.TypesInfo.Uses[fn].(*types.Builtin); !isBuiltin {
			return true
		}
		for _, arg := range call.Args[1:] {
			var offender string
			ast.Inspect(arg, func(m ast.Node) bool {
				if offender != "" {
					return false
				}
				switch m := m.(type) {
				case *ast.Ident:
					if obj := pass.TypesInfo.ObjectOf(m); obj != nil && counts[obj] {
						offender = m.Name
					}
				case ast.Expr:
					if isCountRead(pass, m) {
						offender = types.ExprString(m)
					}
				}
				return offender == ""
			})
			if offender != "" {
				pass.Reportf(call.Pos(),
					"decoder count %s sizes an allocation: read it with r.Count(recordSize), "+
						"which bounds it by the bytes left", offender)
				return true
			}
		}
		return true
	})
}

// isCountRead reports whether e is a call to a wire.Reader count read,
// possibly wrapped in conversions: int(r.U32()), wire.Tick(r.U64()), …
func isCountRead(pass *analysis.Pass, e ast.Expr) bool {
	for {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return false
		}
		if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
			if len(call.Args) != 1 {
				return false
			}
			e = call.Args[0]
			continue
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !readerCountReads[sel.Sel.Name] {
			return false
		}
		tv, ok := pass.TypesInfo.Types[sel.X]
		return ok && isWireReader(tv.Type)
	}
}

// --- exported surface, for the runtime guard cross-check ---

// FieldSets is one tracked struct's coverage classification.
type FieldSets struct {
	// Covered fields are referenced by the codec closure.
	Covered []string
	// Skipped fields carry a //rebound:snapshot-skip directive.
	Skipped []string
}

// Surfaces loads the module rooted at dir (patterns default to ./...)
// and returns the analyzer's tracked-struct surface keyed by
// "<import path>.<TypeName>". internal/snapshot's runtime reflection
// guard cross-checks its reflect-walked field lists against this, so
// the static and dynamic views of the codec surface cannot drift
// apart silently.
func Surfaces(dir string, patterns ...string) (map[string]FieldSets, error) {
	res, err := load.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	out := make(map[string]FieldSets)
	for _, p := range res.Targets {
		pass := &analysis.Pass{
			Analyzer:    Analyzer,
			Fset:        res.Fset,
			Files:       p.Files,
			Pkg:         p.Types,
			TypesInfo:   p.Info,
			Annotations: analysis.ParseAnnotations(res.Fset, p.Files),
			ModuleFiles: res.ModuleFiles,
			Report:      func(analysis.Diagnostic) {},
		}
		s := compute(pass)
		for _, ts := range s.tracked {
			key := fmt.Sprintf("%s.%s", p.ImportPath, ts.named.Obj().Name())
			var fs FieldSets
			for _, f := range ts.fields {
				if f.skip != nil && !f.covered {
					fs.Skipped = append(fs.Skipped, f.v.Name())
				} else {
					fs.Covered = append(fs.Covered, f.v.Name())
				}
			}
			out[key] = fs
		}
	}
	return out, nil
}
