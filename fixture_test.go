package respectorigin

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestGatesOnFixture runs the caller and recorder gates over the module
// in testdata/exportgate, whose comments say what each gate must report
// there and what it must let pass, with the same loader as the repo.
func TestGatesOnFixture(t *testing.T) {
	needGo(t)
	m, err := loadModule(filepath.Join("testdata", "exportgate"))
	if err != nil {
		t.Fatal(err)
	}
	check := func(gate string, got, want []string) {
		t.Helper()
		for _, w := range want {
			n := 0
			for _, g := range got {
				if strings.Contains(g, w) {
					n++
				}
			}
			if n != 1 {
				t.Errorf("%s reports %q %d times, want once", gate, w, n)
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s reports %d findings, want %d: %q", gate, len(got), len(want), got)
		}
	}
	check("the caller gate", exportFindings(m, nil, nil, nil),
		[]string{"method obs.Store.Store ", "field obs.Meta.Label ", "const obs.Unused ", "option field obs.Options.Depth ", "func obs.depth "})
	check("the recorder gate", recorderFindings(m, recorderHolders),
		[]string{filepath.Join("cmd", "app", "main.go")})
}
