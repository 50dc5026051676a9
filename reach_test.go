package respectorigin

import (
	"os"
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
	m := loadRepo(t)
	reached := m.reach(append(m.under("cmd"), m.under("examples")...)...)

	var dirs []string
	for _, p := range m.pkgs {
		if strings.HasPrefix(p.rel, "internal/") {
			dirs = append(dirs, p.rel)
		}
	}
	slices.Sort(dirs)
	for _, dir := range dirs {
		if !reached[dir] && !slices.Contains(testSupport, dir) && !slices.Contains(probeOnly, dir) {
			t.Errorf("%s is not a dependency of ./cmd/... or ./examples/...: only tests or benchmarks can reach it", dir)
		}
	}

	var benchOnly []string
	for dir := range m.reach("benchmark") {
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
	// The lab rotates its own A records as the CDN does.
	{"examples/coalescing-lab", "internal/dns", "the lab must answer lookups from its own A records"},
	// The resolver is a stub over the wire; the warm-path DNS cache
	// belongs to the browser.
	{"internal/dns", "internal/cache", "the resolver must not carry a warm-path cache"},
}

// TestCDNAnswersItsOwnDNS holds the forbiddenEdges table: no package
// named on the left reaches the package on the right.
func TestCDNAnswersItsOwnDNS(t *testing.T) {
	m := loadRepo(t)
	for _, e := range forbiddenEdges {
		if m.reach(e.from)[e.to] {
			t.Errorf("%s depends on %s: %s", e.from, e.to, e.why)
		}
	}
}
