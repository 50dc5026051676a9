package respectorigin

import (
	"fmt"
	"go/ast"
	"go/types"
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
	for _, f := range recorderFindings(loadRepo(t), recorderHolders) {
		t.Error(f)
	}
}

// recorderFindings reports each SetRecorder method and each struct
// field of m's non-test Go whose type is the module's obs.Recorder,
// however its file names that type, unless the field is named Rec on
// one of holders.
func recorderFindings(m *module, holders map[string]bool) []string {
	obs := m.pkg("internal/obs")
	if obs == nil {
		return []string{"internal/obs is not loaded"}
	}
	recorder := obs.types.Scope().Lookup("Recorder").Type()
	var findings []string
	for _, p := range m.pkgs {
		for _, f := range p.files {
			owner := map[*ast.StructType]string{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok {
						owner[st] = p.types.Name() + "." + n.Name.Name
					}
				case *ast.FuncDecl:
					if n.Recv != nil && n.Name.Name == "SetRecorder" {
						findings = append(findings, fmt.Sprintf("%s declares SetRecorder: hold a recorder in an exported Rec field", m.position(n.Pos())))
					}
				case *ast.StructType:
					for _, field := range n.Fields.List {
						named := len(field.Names) == 1 && field.Names[0].Name == "Rec"
						if types.Identical(m.info.Types[field.Type].Type, recorder) && (!named || !holders[owner[n]]) {
							findings = append(findings, fmt.Sprintf("%s: obs.Recorder field outside the one idiom: only the recorder holders hold one, in a field named Rec",
								m.position(field.Pos())))
						}
					}
				}
				return true
			})
		}
	}
	return findings
}
