package respectorigin

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestEveryFuzzTargetRunsInCI holds CI's fuzz loop to the tree: every
// func Fuzz* in a test file is named in .github/workflows/ci.yml, and so
// is its package directory, so a new target cannot be left out and a
// renamed one cannot drop out unseen.
func TestEveryFuzzTargetRunsInCI(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w*)\(`)
	found := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dir := "./" + filepath.ToSlash(filepath.Dir(path))
		for _, m := range fuzzFunc.FindAllSubmatch(src, -1) {
			found++
			name := string(m[1])
			if !regexp.MustCompile(`\b`+name+`\b`).Match(ci) || !strings.Contains(string(ci), dir+"\n") {
				t.Errorf("%s (%s) is not in ci.yml's fuzz loop", name, dir)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("no fuzz targets found: the walk is broken")
	}
}
