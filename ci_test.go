package respectorigin

import (
	"bytes"
	"go/format"
	"io/fs"
	"os"
	"os/exec"
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

// TestGofmt proves in go test what CI's Format step proves in shell:
// every .go file outside testdata is exactly as gofmt prints it.
func TestGofmt(t *testing.T) {
	checked := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		formatted, err := format.Source(src)
		if err != nil {
			return err
		}
		if !bytes.Equal(src, formatted) {
			t.Errorf("%s is not gofmt-formatted: run gofmt -w %s", path, path)
		}
		checked++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no Go files found: the walk is broken")
	}
}

// TestVet proves in go test what CI's Vet step proves in shell: go vet
// reports nothing over the module.
func TestVet(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(goTool, "vet", "./...").CombinedOutput(); err != nil {
		t.Fatalf("go vet ./...: %v\n%s", err, out)
	}
}
