// Package load turns Go package patterns into parsed, type-checked
// packages without golang.org/x/tools. It shells out to `go list
// -export -deps -json` for build metadata and export data (compiled
// into the build cache, so the whole pipeline works offline), parses
// the module's own packages from source, and type-checks them against
// their dependencies' export data via go/importer.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// listPackage is the subset of `go list -json` output we consume.
type listPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// Package is one parsed, type-checked target package.
type Package struct {
	ImportPath string
	Name       string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Result is a completed load.
type Result struct {
	// Targets are the packages matched by the patterns, in stable
	// import-path order.
	Targets []*Package
	// ModuleFiles maps import path → syntax for every module package
	// in the load (targets and their in-module deps), letting
	// analyzers read annotations declared outside the package under
	// analysis.
	ModuleFiles map[string][]*ast.File
	// Fset is shared by all parsed files.
	Fset *token.FileSet
}

// Load lists patterns in dir, then parses and type-checks every
// matched package of the enclosing module. Test files are not
// analyzed (the contracts cover shipped code; tests routinely and
// legitimately use wall clocks and ad-hoc iteration).
func Load(dir string, patterns ...string) (*Result, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	exports := make(map[string]string)
	var targets, moduleDeps []*listPackage
	for _, p := range pkgs {
		if p.Error != nil {
			return nil, fmt.Errorf("load %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		switch {
		case p.Standard || p.Module == nil:
		case !p.DepOnly:
			targets = append(targets, p)
		default:
			moduleDeps = append(moduleDeps, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})

	res := &Result{Fset: fset, ModuleFiles: make(map[string][]*ast.File)}
	for _, p := range moduleDeps {
		files, err := parseFiles(fset, p)
		if err != nil {
			return nil, err
		}
		res.ModuleFiles[p.ImportPath] = files
	}
	for _, p := range targets {
		files, err := parseFiles(fset, p)
		if err != nil {
			return nil, err
		}
		res.ModuleFiles[p.ImportPath] = files
		pkg, info, err := Check(fset, p.ImportPath, files, imp)
		if err != nil {
			return nil, fmt.Errorf("typecheck %s: %v", p.ImportPath, err)
		}
		res.Targets = append(res.Targets, &Package{
			ImportPath: p.ImportPath,
			Name:       p.Name,
			Dir:        p.Dir,
			Fset:       fset,
			Files:      files,
			Types:      pkg,
			Info:       info,
		})
	}
	return res, nil
}

// ModuleSyntax is Load without type-checking: it returns a shared
// FileSet, the export-data map for the whole dependency closure, and
// parsed syntax for every module package. analysistest uses it to give
// fixture passes the repository's real //rebound:clock annotations
// (via Pass.ModuleFiles) while type-checking only the fixture itself.
func ModuleSyntax(dir string, patterns ...string) (*token.FileSet, map[string]string, map[string][]*ast.File, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, nil, nil, err
	}
	fset := token.NewFileSet()
	exports := make(map[string]string)
	moduleFiles := make(map[string][]*ast.File)
	for _, p := range pkgs {
		if p.Error != nil {
			return nil, nil, nil, fmt.Errorf("load %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.Standard || p.Module == nil {
			continue
		}
		files, err := parseFiles(fset, p)
		if err != nil {
			return nil, nil, nil, err
		}
		moduleFiles[p.ImportPath] = files
	}
	return fset, exports, moduleFiles, nil
}

// Importer wraps an import-path → export-file map as a types.Importer.
func Importer(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// Check type-checks one package's files, returning full type info.
func Check(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

func parseFiles(fset *token.FileSet, p *listPackage) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func goList(dir string, patterns []string) ([]*listPackage, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, strings.TrimSpace(stderr.String()))
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}
