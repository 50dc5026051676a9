package respectorigin

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// cdnReadMethods are the cdn.CDN methods every request calls, from as
// many goroutines as a planned deployment day or loadgen runs.
var cdnReadMethods = []string{"Lookup", "LookupTTL", "CertSANs", "OriginSet", "SupportsH3", "Reachable", "Phase"}

// TestCDNReadPathTakesNoLock holds the CDN's read path to its published
// view: no read method of cdn.CDN, nor any function or method of
// internal/cdn it calls, directly or not, touches a field named mu.
// Methods are followed by name, whatever their receiver, so the check
// errs on the side of failing.
func TestCDNReadPathTakesNoLock(t *testing.T) {
	files, err := filepath.Glob("internal/cdn/*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	funcs := map[string][]*ast.FuncDecl{} // by name: functions, and methods of every receiver
	var reads []*ast.FuncDecl
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			funcs[fd.Name.Name] = append(funcs[fd.Name.Name], fd)
			if fd.Recv != nil && receiverName(fd) == "CDN" && slices.Contains(cdnReadMethods, fd.Name.Name) {
				reads = append(reads, fd)
			}
		}
	}
	if len(reads) != len(cdnReadMethods) {
		t.Fatalf("found %d of the %d CDN read methods %v", len(reads), len(cdnReadMethods), cdnReadMethods)
	}
	for _, read := range reads {
		seen := map[*ast.FuncDecl]bool{}
		var walk func(fd *ast.FuncDecl, path string)
		walk = func(fd *ast.FuncDecl, path string) {
			if seen[fd] {
				return
			}
			seen[fd] = true
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				var callee string
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if n.Sel.Name == "mu" {
						t.Errorf("%s: CDN.%s reaches the writers' lock (via %s)", fset.Position(n.Pos()), read.Name.Name, path)
					}
				case *ast.CallExpr:
					switch fn := n.Fun.(type) {
					case *ast.Ident:
						callee = fn.Name
					case *ast.SelectorExpr:
						callee = fn.Sel.Name
					}
				}
				for _, next := range funcs[callee] {
					walk(next, path+" → "+callee)
				}
				return true
			})
		}
		walk(read, read.Name.Name)
	}
}

// receiverName is the name of fd's receiver type, without a pointer.
func receiverName(fd *ast.FuncDecl) string {
	expr := fd.Recv.List[0].Type
	if star, ok := expr.(*ast.StarExpr); ok {
		expr = star.X
	}
	if id, ok := expr.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
