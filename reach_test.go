package respectorigin

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// testSupport is reached by tests alone, by design.
var testSupport = []string{"internal/clitest"}

// probeOnly is what a benchmark/ probe reaches and no binary or example
// does. The test holds it equal to that set, so it cannot grow unseen
// and the change that drops a probe deletes the entry (and the package).
var probeOnly = []string{"internal/qpack", "internal/quic"}

// TestEveryInternalPackageIsReached holds ROADMAP's "every package
// earns a number or goes": each directory under internal/ with non-test
// Go code is a dependency of a cmd/ binary or an example — the things
// that print the numbers this reproduction reports — and has a row in
// DESIGN.md §3 saying what it is and who reaches it.
func TestEveryInternalPackageIsReached(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	deps := func(patterns ...string) map[string]bool {
		out, err := exec.Command(goTool, append([]string{"list", "-deps"}, patterns...)...).Output()
		if err != nil {
			t.Fatalf("go list -deps %v: %v", patterns, err)
		}
		set := map[string]bool{}
		for _, pkg := range strings.Fields(string(out)) {
			if dir, ok := strings.CutPrefix(pkg, "respectorigin/"); ok {
				set[dir] = true
			}
		}
		return set
	}
	reached := deps("./cmd/...", "./examples/...")

	var dirs []string
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			if dir := filepath.ToSlash(filepath.Dir(path)); !slices.Contains(dirs, dir) {
				dirs = append(dirs, dir)
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		if !reached[dir] && !slices.Contains(testSupport, dir) && !slices.Contains(probeOnly, dir) {
			t.Errorf("%s is not a dependency of ./cmd/... or ./examples/...: only tests or benchmarks can reach it", dir)
		}
	}

	var benchOnly []string
	for dir := range deps("./benchmark") {
		if strings.HasPrefix(dir, "internal/") && !reached[dir] {
			benchOnly = append(benchOnly, dir)
		}
	}
	slices.Sort(benchOnly)
	if !slices.Equal(benchOnly, probeOnly) {
		t.Errorf("./benchmark alone reaches %v, probeOnly lists %v", benchOnly, probeOnly)
	}

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, inventory, _ := strings.Cut(string(design), "\n## 3. ")
	inventory, _, _ = strings.Cut(inventory, "\n## 4. ")
	for _, dir := range dirs {
		if !strings.Contains(inventory, "\n| `"+dir+"` |") {
			t.Errorf("%s has no row in DESIGN.md §3", dir)
		}
	}
}

// forbiddenEdges are dependencies the design rules out, each with why.
// An edge counts through any chain of imports; tests are not counted.
var forbiddenEdges = []struct{ from, to, why string }{
	// The CDN answers lookups from its own A records, so the wire
	// authority stays out of the §5 visit loop (its tests may use it as
	// the oracle).
	{"internal/cdn", "internal/dns", "the CDN must answer lookups from its own A records"},
	// The lab rotates its own A records as the CDN does.
	{"examples/coalescing-lab", "internal/dns", "the lab must answer lookups from its own A records"},
	// The resolver is a stub over the wire; the warm-path DNS cache
	// belongs to the browser.
	{"internal/dns", "internal/cache", "the resolver must not carry a warm-path cache"},
}

// TestCDNAnswersItsOwnDNS holds the forbiddenEdges table: no package
// named on the left reaches the package on the right.
func TestCDNAnswersItsOwnDNS(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	for _, e := range forbiddenEdges {
		out, err := exec.Command(goTool, "list", "-deps", "./"+e.from).Output()
		if err != nil {
			t.Fatalf("go list -deps ./%s: %v", e.from, err)
		}
		if slices.Contains(strings.Fields(string(out)), "respectorigin/"+e.to) {
			t.Errorf("%s depends on %s: %s", e.from, e.to, e.why)
		}
	}
}

// callerAllowlist names the exported funcs and methods under internal/
// that stand without a non-test caller in another package, each with
// why. The only reasons are: a correctness oracle that tests compare
// against, a DESIGN.md §6 ablation bench in bench_test.go, and a hook
// whose only job is to let a test observe or substitute.
var callerAllowlist = map[string]string{
	"conformance.NewFlowChecker":                "oracle: h2's tests hold every flow-control window to this RFC 9113 mirror",
	"conformance.FlowChecker.Check":             "oracle: h2's tests hold every flow-control window to this RFC 9113 mirror",
	"conformance.FlowChecker.CheckConservation": "oracle: h2's tests hold every flow-control window to this RFC 9113 mirror",
	"conformance.FlowChecker.WentNegative":      "oracle: h2's tests hold every flow-control window to this RFC 9113 mirror",
	"privacy.Analyze":                           "oracle: one page's §6.2 exposure, host by host, that privacy's tests check against a reconstructed page",
	"privacy.Exposure.LeakedHosts":              "oracle: the leaked-host set of privacy.Analyze",
	"hpack.Encoder.SetHuffman":                  "ablation §6.1: BenchmarkAblationHuffman runs the encoder with Huffman coding on and off",
	"certs.Leaf.TLSRecords":                     "ablation §6.5: BenchmarkAblationSANSize reads the TLS records a real chain needs",
}

// stdlibInterfaceMethods are the methods of the standard-library
// interfaces that types here satisfy: a method by one of these names is
// called through the interface, not by name.
var stdlibInterfaceMethods = []string{
	"Error",   // error
	"String",  // fmt.Stringer
	"Read",    // io.Reader
	"Write",   // io.Writer
	"Close",   // io.Closer
	"Timeout", // net.Error
	"Temporary",
}

// TestEveryExportHasACaller holds ROADMAP's "every exported name earns a
// caller": each exported func and method declared in a non-test file
// under internal/ is named by a non-test file of another package
// (internal/, cmd/, examples/ or benchmark/), or stands on
// callerAllowlist. A func counts as named when that file selects it as
// pkg.Name; a method, when that file selects .Name on anything but a
// package, or when Name is a method of an interface declared in the
// repository or of stdlibInterfaceMethods. Packages in testSupport and
// probeOnly are not scanned, and testSupport counts as no caller.
func TestEveryExportHasACaller(t *testing.T) {
	type decl struct{ dir, key string } // key is pkg.Func or pkg.Type.Method
	var funcs, methods []decl
	funcCalled := map[string]bool{}              // "dir.Name" selected from another dir
	methodCalled := map[string]map[string]bool{} // Name → dirs that select .Name
	viaInterface := map[string]bool{}
	for _, m := range stdlibInterfaceMethods {
		viaInterface[m] = true
	}

	fset := token.NewFileSet()
	skipped := append(slices.Clone(testSupport), probeOnly...)
	for _, root := range []string{"internal", "cmd", "examples", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			dir := filepath.ToSlash(filepath.Dir(path))
			if slices.Contains(testSupport, dir) {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			imports := map[string]string{} // local name → repo dir
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				name := p[strings.LastIndex(p, "/")+1:]
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = strings.TrimPrefix(p, "respectorigin/")
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if id, ok := n.X.(*ast.Ident); ok && imports[id.Name] != "" {
						if to := imports[id.Name]; to != dir {
							funcCalled[to+"."+n.Sel.Name] = true
						}
						return true
					}
					if methodCalled[n.Sel.Name] == nil {
						methodCalled[n.Sel.Name] = map[string]bool{}
					}
					methodCalled[n.Sel.Name][dir] = true
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, name := range m.Names {
							viaInterface[name.Name] = true
						}
					}
				}
				return true
			})
			if !strings.HasPrefix(dir, "internal/") || slices.Contains(skipped, dir) {
				return nil
			}
			pkg := filepath.Base(dir)
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				if fd.Recv == nil {
					funcs = append(funcs, decl{dir, pkg + "." + fd.Name.Name})
					continue
				}
				typ := fd.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				switch g := typ.(type) {
				case *ast.IndexExpr:
					typ = g.X
				case *ast.IndexListExpr:
					typ = g.X
				}
				methods = append(methods, decl{dir, pkg + "." + typ.(*ast.Ident).Name + "." + fd.Name.Name})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(funcs) == 0 || len(methods) == 0 || len(funcCalled) == 0 || len(methodCalled) == 0 {
		t.Fatalf("empty scan: %d funcs, %d methods, %d selected funcs, %d selected names; the walk is broken",
			len(funcs), len(methods), len(funcCalled), len(methodCalled))
	}

	declared := map[string]bool{}
	var uncalled []string
	for _, d := range funcs {
		declared[d.key] = true
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		if !funcCalled[d.dir+"."+name] {
			uncalled = append(uncalled, d.key)
		} else if _, ok := callerAllowlist[d.key]; ok {
			t.Errorf("%s is on callerAllowlist but has a non-test caller: drop the entry", d.key)
		}
	}
	for _, d := range methods {
		declared[d.key] = true
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		called := viaInterface[name]
		for dir := range methodCalled[name] {
			called = called || dir != d.dir
		}
		if !called {
			uncalled = append(uncalled, d.key)
		} else if _, ok := callerAllowlist[d.key]; ok {
			t.Errorf("%s is on callerAllowlist but has a non-test caller: drop the entry", d.key)
		}
	}
	for key := range callerAllowlist {
		if !declared[key] {
			t.Errorf("callerAllowlist names %s, which is not an exported func or method under internal/", key)
		}
	}
	slices.Sort(uncalled)
	n := 0
	for _, key := range uncalled {
		if _, ok := callerAllowlist[key]; !ok {
			t.Errorf("%s has no non-test caller outside its package: unexport it, delete it, or allowlist it with a reason", key)
			n++
		}
	}
	if n > 0 {
		t.Logf("%d of %d exported funcs and methods have no caller", n, len(funcs)+len(methods))
	}
}
