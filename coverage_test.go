package respectorigin

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"testing"
)

// coverageAllowed names the functions and methods outside
// internal/certs, as package.Func or package.Type.Method, that may take a
// SAN apart by hand, each held equal to certs.Covers by a test.
var coverageAllowed = map[string]bool{
	"webgen.generator.sanWildcardCovers": true, // TestSanWildcardCoversMatchesCovers
}

// TestOneCoverageRule holds certs.Covers as the one place a SAN list is
// matched against a host: no non-test Go outside internal/certs compares
// a byte or rune to '*' or asks strings.HasPrefix or bytes.HasPrefix
// about "*.", so no second copy of the wildcard rule can appear.
func TestOneCoverageRule(t *testing.T) {
	for _, f := range coverageFindings(loadRepo(t)) {
		t.Error(f)
	}
}

// coverageFindings reports each comparison with '*' and each HasPrefix
// test for "*." in m's non-test Go outside internal/certs and the
// functions of coverageAllowed. Constants count by value and callees by
// the function they resolve to, whatever they are named in the file.
func coverageFindings(m *module) []string {
	isStar := func(e ast.Expr) bool {
		tv := m.info.Types[e]
		if tv.Value == nil || tv.Value.Kind() != constant.Int {
			return false
		}
		basic, ok := tv.Type.(*types.Basic)
		if !ok || basic.Kind() != types.Byte && basic.Kind() != types.Rune && basic.Kind() != types.UntypedRune {
			return false
		}
		v, exact := constant.Int64Val(tv.Value)
		return exact && v == '*'
	}
	isWildcardPrefix := func(e ast.Expr) bool {
		if conv, ok := e.(*ast.CallExpr); ok && len(conv.Args) == 1 && m.info.Types[conv.Fun].IsType() {
			e = conv.Args[0] // []byte("*.")
		}
		tv := m.info.Types[e]
		return tv.Value != nil && tv.Value.Kind() == constant.String && constant.StringVal(tv.Value) == "*."
	}
	var findings []string
	report := func(pos token.Pos, what string) {
		findings = append(findings, fmt.Sprintf("%s %s: match SANs with certs.Covers", m.position(pos), what))
	}
	for _, p := range m.pkgs {
		if p.rel == "internal/certs" {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					return !coverageAllowed[funcKey(m.info.Defs[n.Name].(*types.Func))]
				case *ast.BinaryExpr:
					if (n.Op == token.EQL || n.Op == token.NEQ) && (isStar(n.X) || isStar(n.Y)) {
						report(n.Pos(), "compares a byte to '*'")
					}
				case *ast.CaseClause:
					for _, e := range n.List {
						if isStar(e) {
							report(e.Pos(), "switches on '*'")
						}
					}
				case *ast.CallExpr:
					fn := callee(m.info, n)
					if fn == nil || fn.Name() != "HasPrefix" || fn.Pkg() == nil || len(n.Args) != 2 || !isWildcardPrefix(n.Args[1]) {
						return true
					}
					if path := fn.Pkg().Path(); path == "strings" || path == "bytes" {
						report(n.Pos(), "asks "+path+".HasPrefix about \"*.\"")
					}
				}
				return true
			})
		}
	}
	return findings
}

// funcKey names fn as package.Func, or package.Type.Method for a method.
func funcKey(fn *types.Func) string {
	key := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		key = t.(*types.Named).Obj().Name() + "." + key
	}
	return fn.Pkg().Name() + "." + key
}
