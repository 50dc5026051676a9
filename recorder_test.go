package respectorigin

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// recorderHolders are the only types that hold an observability
// recorder, by package name and type name.
var recorderHolders = map[string]bool{"browser.Browser": true, "cdn.Experiment": true, "h2.Server": true}

// TestOneRecorderIdiom holds the one way a recorder is wired: an
// exported Rec obs.Recorder field on one of recorderHolders, set before
// first use. Non-test Go declares no SetRecorder method and no
// obs.Recorder field anywhere else or under another name.
func TestOneRecorderIdiom(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		owner := map[*ast.StructType]string{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok {
					owner[st] = f.Name.Name + "." + n.Name.Name
				}
			case *ast.FuncDecl:
				if n.Recv != nil && n.Name.Name == "SetRecorder" {
					t.Errorf("%s declares SetRecorder: hold a recorder in an exported Rec field", fset.Position(n.Pos()))
				}
			case *ast.StructType:
				for _, field := range n.Fields.List {
					named := len(field.Names) == 1 && field.Names[0].Name == "Rec"
					if isRecorder(f.Name.Name, field.Type) && (!named || !recorderHolders[owner[n]]) {
						t.Errorf("%s: obs.Recorder field outside the one idiom: only browser.Browser, cdn.Experiment and h2.Server hold one, in a field named Rec",
							fset.Position(field.Pos()))
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// isRecorder reports whether expr, in a file of package pkg, names the
// obs.Recorder interface.
func isRecorder(pkg string, expr ast.Expr) bool {
	switch e := expr.(type) {
	case *ast.SelectorExpr:
		x, ok := e.X.(*ast.Ident)
		return ok && x.Name == "obs" && e.Sel.Name == "Recorder"
	case *ast.Ident:
		return pkg == "obs" && e.Name == "Recorder"
	}
	return false
}
