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

// handshakeTerms are the netsim.Params fields a connection setup's
// price is made of.
var handshakeTerms = map[string]bool{"CertVerifyMs": true, "TLSRoundTrips": true, "ExtraCertVerifyPerSANMs": true}

// TestOneHandshakePrice holds netsim as the one place a connection setup
// is priced: no non-test Go outside internal/netsim reads a handshake
// term, so every caller goes through netsim.Params.SetupMs or
// Network.HandshakeTime and no second copy of the formula can appear.
func TestOneHandshakePrice(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join("internal", "netsim") || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "." {
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
			if sel, ok := n.(*ast.SelectorExpr); ok && handshakeTerms[sel.Sel.Name] {
				t.Errorf("%s reads %s: price connection setups with netsim.Params.SetupMs or Network.HandshakeTime", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
