package respectorigin

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
	"strings"
	"sync"
	"testing"
)

// module is one Go module's non-test code, parsed and type-checked in a
// single pass: the load every root gate reads.
type module struct {
	path string // module path, e.g. "respectorigin"
	fset *token.FileSet
	info *types.Info
	pkgs []*modPackage // the module's packages with non-test Go, dependencies first
	// imports maps each of the module's packages, by directory relative
	// to the module root, to the module packages its non-test Go imports.
	imports map[string][]string
	std     map[string]*types.Package // standard-library packages, by import path
}

// modPackage is one package of a module.
type modPackage struct {
	rel   string // directory relative to the module root, slash-separated
	types *types.Package
	files []*ast.File
}

// loadModule lists the module rooted at dir with one `go list -deps`,
// reads the standard library's export data located by one `go list
// -export`, then parses and type-checks the module's non-test Go in
// dependency order into one shared types.Info.
func loadModule(dir string) (*module, error) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		return nil, err
	}
	out, err := exec.Command(goTool, "list", "-C", dir, "-deps", "-json=ImportPath,Dir,GoFiles,Imports,Standard,Module", "./...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list -deps in %s: %v", dir, err)
	}
	type listed struct {
		ImportPath, Dir string
		GoFiles         []string
		Imports         []string
		Standard        bool
		Module          *struct{ Path string }
	}
	var own []listed
	stdImported := map[string]bool{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Standard {
			continue
		}
		own = append(own, p)
	}
	if len(own) == 0 {
		return nil, fmt.Errorf("go list found no packages in %s", dir)
	}
	m := &module{
		path: own[0].Module.Path,
		fset: token.NewFileSet(),
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		imports: map[string][]string{},
		std:     map[string]*types.Package{},
	}
	rel := func(importPath string) (string, bool) {
		if importPath == m.path {
			return ".", true
		}
		r, ok := strings.CutPrefix(importPath, m.path+"/")
		return r, ok
	}
	for _, p := range own {
		r, _ := rel(p.ImportPath)
		m.imports[r] = []string{}
		for _, imp := range p.Imports {
			if to, ok := rel(imp); ok {
				m.imports[r] = append(m.imports[r], to)
			} else {
				stdImported[imp] = true
			}
		}
	}

	exportFile := map[string]string{}
	if len(stdImported) > 0 {
		args := []string{"list", "-C", dir, "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}
		for p := range stdImported {
			if p != "unsafe" && p != "C" {
				args = append(args, p)
			}
		}
		out, err := exec.Command(goTool, args...).Output()
		if err != nil {
			return nil, fmt.Errorf("go list -export: %v", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			if path, file, ok := strings.Cut(line, "\t"); ok {
				exportFile[path] = file
			}
		}
	}
	std := importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exportFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})

	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		p, err := std.Import(path)
		if err == nil {
			m.std[path] = p
		}
		return p, err
	})
	conf := types.Config{Importer: imp}
	for _, p := range own {
		if len(p.GoFiles) == 0 {
			continue
		}
		r, _ := rel(p.ImportPath)
		mp := &modPackage{rel: r}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(m.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			mp.files = append(mp.files, f)
		}
		mp.types, err = conf.Check(p.ImportPath, m.fset, mp.files, m.info)
		if err != nil {
			return nil, err
		}
		checked[p.ImportPath] = mp.types
		m.pkgs = append(m.pkgs, mp)
	}
	return m, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// repo is this module, loaded once per test binary.
var repo = sync.OnceValues(func() (*module, error) { return loadModule(".") })

// needGo skips the test when the go tool is not on PATH.
func needGo(t *testing.T) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
}

// loadRepo returns the shared load of this module.
func loadRepo(t *testing.T) *module {
	t.Helper()
	needGo(t)
	m, err := repo()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// pkg returns the module package at rel, or nil.
func (m *module) pkg(rel string) *modPackage {
	for _, p := range m.pkgs {
		if p.rel == rel {
			return p
		}
	}
	return nil
}

// reach is the set of module packages, by directory, that the packages
// at roots import through any chain of non-test imports, roots included.
func (m *module) reach(roots ...string) map[string]bool {
	seen := map[string]bool{}
	var visit func(string)
	visit = func(p string) {
		if !seen[p] {
			seen[p] = true
			for _, next := range m.imports[p] {
				visit(next)
			}
		}
	}
	for _, r := range roots {
		visit(r)
	}
	return seen
}

// under lists the module packages, by directory, at prefix or below it.
func (m *module) under(prefix string) []string {
	var dirs []string
	for dir := range m.imports {
		if dir == prefix || strings.HasPrefix(dir, prefix+"/") {
			dirs = append(dirs, dir)
		}
	}
	return dirs
}

// position is pos as file:line:column relative to the working directory.
func (m *module) position(pos token.Pos) string {
	p := m.fset.Position(pos)
	if wd, err := os.Getwd(); err == nil {
		if r, err := filepath.Rel(wd, p.Filename); err == nil {
			p.Filename = r
		}
	}
	return p.String()
}
