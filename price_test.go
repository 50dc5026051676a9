package respectorigin

import (
	"fmt"
	"go/ast"
	"go/types"
	"slices"
	"testing"
)

// handshakeTerms are the netsim.Params fields a connection setup's
// price is made of.
var handshakeTerms = []string{"CertVerifyMs", "TLSRoundTrips", "ExtraCertVerifyPerSANMs"}

// TestOneHandshakePrice holds netsim as the one place a connection setup
// is priced: no non-test Go outside internal/netsim selects a handshake
// term of netsim.Params, so every caller goes through
// netsim.Params.SetupMs or Network.HandshakeTime and no second copy of
// the formula can appear. A field of the same name on another type is
// not a handshake term.
func TestOneHandshakePrice(t *testing.T) {
	for _, f := range handshakeFindings(loadRepo(t)) {
		t.Error(f)
	}
}

// handshakeFindings reports each selection of a handshake term in m's
// non-test Go outside internal/netsim.
func handshakeFindings(m *module) []string {
	netsim := m.pkg("internal/netsim")
	if netsim == nil {
		return []string{"internal/netsim is not loaded"}
	}
	params := netsim.types.Scope().Lookup("Params").Type().Underlying().(*types.Struct)
	terms := map[types.Object]bool{}
	for i := range params.NumFields() {
		if f := params.Field(i); slices.Contains(handshakeTerms, f.Name()) {
			terms[f] = true
		}
	}
	var findings []string
	if len(terms) != len(handshakeTerms) {
		findings = append(findings, fmt.Sprintf("netsim.Params has %d of the handshake terms %v", len(terms), handshakeTerms))
	}
	for _, p := range m.pkgs {
		if p == netsim {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if s := m.info.Selections[sel]; s != nil && terms[s.Obj()] {
						findings = append(findings, fmt.Sprintf("%s reads netsim.Params.%s: price connection setups with netsim.Params.SetupMs or Network.HandshakeTime",
							m.position(sel.Pos()), sel.Sel.Name))
					}
				}
				return true
			})
		}
	}
	return findings
}
