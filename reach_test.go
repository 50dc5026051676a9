package respectorigin

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
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
