package lazyrand

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// One way to make a seeded stream: every non-test file under internal/,
// cmd/ and examples/ gets its generator from this package, so there is
// no rule about which streams are short enough to deserve it, and no
// second generator (math/rand/v2 draws different numbers: every golden
// would move).
func TestOneSeededStreamIdiom(t *testing.T) {
	files := 0
	for _, root := range []string{"../../internal", "../../cmd", "../../examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && path == "../../internal/lazyrand" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			files++
			for _, banned := range []string{"rand.NewSource(", `"math/rand/v2"`} {
				if strings.Contains(string(src), banned) {
					t.Errorf("%s: %s — seeded streams come from lazyrand.New", path, banned)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files < 50 {
		t.Fatalf("walked %d Go files; the tree has moved and this test checks nothing", files)
	}
}
