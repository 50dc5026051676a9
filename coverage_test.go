package respectorigin

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// coverageAllowed names the functions outside internal/certs that may
// take a SAN apart by hand, each held equal to certs.Covers by a test.
var coverageAllowed = map[string]bool{
	// TestSanWildcardCoversMatchesCovers
	filepath.Join("internal", "webgen", "webgen.go") + ":sanWildcardCovers": true,
}

// TestOneCoverageRule holds certs.Covers as the one place a SAN list is
// matched against a host: no non-test Go outside internal/certs compares
// a byte to '*' or asks strings.HasPrefix or bytes.HasPrefix about
// "*.", so no second copy of the wildcard rule can appear.
func TestOneCoverageRule(t *testing.T) {
	isStar := func(e ast.Expr) bool {
		lit, ok := e.(*ast.BasicLit)
		return ok && lit.Kind == token.CHAR && lit.Value == "'*'"
	}
	isWildcardPrefix := func(e ast.Expr) bool {
		if conv, ok := e.(*ast.CallExpr); ok && len(conv.Args) == 1 {
			e = conv.Args[0] // []byte("*.")
		}
		lit, ok := e.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return false
		}
		s, err := strconv.Unquote(lit.Value)
		return err == nil && s == "*."
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join("internal", "certs") || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "." {
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
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				return !coverageAllowed[path+":"+n.Name.Name]
			case *ast.BinaryExpr:
				if (n.Op == token.EQL || n.Op == token.NEQ) && (isStar(n.X) || isStar(n.Y)) {
					t.Errorf("%s compares a byte to '*': match SANs with certs.Covers", fset.Position(n.Pos()))
				}
			case *ast.CaseClause:
				for _, e := range n.List {
					if isStar(e) {
						t.Errorf("%s switches on '*': match SANs with certs.Covers", fset.Position(e.Pos()))
					}
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "HasPrefix" || len(n.Args) != 2 || !isWildcardPrefix(n.Args[1]) {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && (pkg.Name == "strings" || pkg.Name == "bytes") {
					t.Errorf("%s asks %s.HasPrefix about \"*.\": match SANs with certs.Covers", fset.Position(n.Pos()), pkg.Name)
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
