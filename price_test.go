package respectorigin

import (
	"fmt"
	"go/types"
	"strings"
	"testing"
)

// handshakeTerms are the constants a connection setup's price is made
// of, beside the profile's round-trip time.
var handshakeTerms = []string{"certVerifyMs", "tlsRoundTrips", "extraCertVerifyPerSANMs"}

// TestOneHandshakePrice holds netsim as the one place a connection setup
// is priced: each handshake term is an unexported float64 constant of
// internal/netsim, and netsim.Params has no field of that name in any
// case, so no package outside netsim can read a term, every caller goes
// through netsim.Params.SetupMs or Network.HandshakeTime, and no second
// copy of the formula can appear.
func TestOneHandshakePrice(t *testing.T) {
	for _, f := range handshakeFindings(loadRepo(t)) {
		t.Error(f)
	}
}

// handshakeFindings reports each handshake term that is not an
// unexported float64 constant of m's internal/netsim, and each
// netsim.Params field that spells a term's name.
func handshakeFindings(m *module) []string {
	netsim := m.pkg("internal/netsim")
	if netsim == nil {
		return []string{"internal/netsim is not loaded"}
	}
	var findings []string
	scope := netsim.types.Scope()
	for _, term := range handshakeTerms {
		c, ok := scope.Lookup(term).(*types.Const)
		if !ok || !types.Identical(c.Type(), types.Typ[types.Float64]) {
			findings = append(findings, fmt.Sprintf("netsim declares no float64 constant %s: price connection setups from netsim's own constants", term))
		}
	}
	params := scope.Lookup("Params").Type().Underlying().(*types.Struct)
	for i := range params.NumFields() {
		f := params.Field(i)
		for _, term := range handshakeTerms {
			if strings.EqualFold(f.Name(), term) {
				findings = append(findings, fmt.Sprintf("%s: netsim.Params.%s makes the handshake term %s settable outside netsim",
					m.position(f.Pos()), f.Name(), term))
			}
		}
	}
	return findings
}
