package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCmd builds one of the repo's commands into dir and returns the
// binary's path; tests that drive the CLI surface skip without a go tool.
func buildCmd(t *testing.T, dir, name string) string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := filepath.Join(dir, name)
	if out, err := exec.Command(goTool, "build", "-o", bin, "respectorigin/cmd/"+name).CombinedOutput(); err != nil {
		t.Fatalf("go build cmd/%s: %v\n%s", name, err, out)
	}
	return bin
}

// run executes a built command and returns its stdout, failing the test
// with the command's stderr on a nonzero exit.
func run(t *testing.T, bin string, args ...string) []byte {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, stderr.Bytes())
	}
	return out
}

// TestMatrixSmoke drives the -matrix surface of the built binaries: the
// table and the cell NDJSON are byte-identical at -workers 1 and 4,
// axis selectors subset the cross-product, an unknown persona is
// rejected, and report -matrix prints the table cdnsim -matrix prints.
func TestMatrixSmoke(t *testing.T) {
	dir := t.TempDir()
	cdnsim, report := buildCmd(t, dir, "cdnsim"), buildCmd(t, dir, "report")
	readFile := func(path string) []byte {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	nd1, nd4 := filepath.Join(dir, "mx1.ndjson"), filepath.Join(dir, "mx4.ndjson")
	table1 := run(t, cdnsim, "-matrix", "-sites", "60", "-seed", "1", "-workers", "1", "-out", nd1)
	table4 := run(t, cdnsim, "-matrix", "-sites", "60", "-seed", "1", "-workers", "4", "-out", nd4)
	if !bytes.Equal(table1, table4) {
		t.Errorf("table differs between -workers 1 and 4:\n%s\n---\n%s", table1, table4)
	}
	if cells := readFile(nd1); len(cells) == 0 || !bytes.Equal(cells, readFile(nd4)) {
		t.Errorf("cell NDJSON empty or different between -workers 1 and 4 (%d bytes at 1)", len(cells))
	}

	subset := run(t, cdnsim, "-matrix", "-sites", "40", "-personas", "chrome,mobile", "-archetypes", "sharded", "-profiles", "wired,3g", "-dns", "do53")
	if rows := bytes.Count(subset, []byte("\n")) - 2; rows != 2*1*2*1 {
		t.Errorf("selector subset printed %d cells, want 4:\n%s", rows, subset)
	}
	if out, err := exec.Command(cdnsim, "-matrix", "-sites", "40", "-personas", "netscape").CombinedOutput(); err == nil {
		t.Errorf("unknown persona accepted:\n%s", out)
	}

	if got := run(t, report, "-matrix", "-sites", "60", "-seed", "1", "-workers", "4"); !bytes.Equal(got, table1) {
		t.Errorf("report -matrix differs from cdnsim -matrix:\n%s\n---\n%s", got, table1)
	}
}
