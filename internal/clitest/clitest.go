// Package clitest is test support for the checks that drive the repo's
// command-line surface: it builds a main package and runs it, so a
// byte-identity or must-fail gate is a Go test rather than a CI shell
// step.
package clitest

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// Build builds the main package at pkg, a path from the module root such
// as "cmd/report", into a directory that lives as long as the test and
// returns the binary's path. It skips the test when there is no go tool
// on PATH.
func Build(t testing.TB, pkg string) string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	if out, err := exec.Command(goTool, "build", "-o", bin, "respectorigin/"+pkg).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// Run executes a built command and returns its stdout, failing the test
// with the command's stderr on a nonzero exit.
func Run(t testing.TB, bin string, args ...string) []byte {
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

// RunExpectFail executes a built command that must exit nonzero and
// reports a test error, with the command's output, if it succeeds.
func RunExpectFail(t testing.TB, bin string, args ...string) {
	t.Helper()
	if out, err := exec.Command(bin, args...).CombinedOutput(); err == nil {
		t.Errorf("%s %s: exited 0, want failure\n%s", filepath.Base(bin), strings.Join(args, " "), out)
	}
}

// ReadFile returns the contents of a file a command wrote.
func ReadFile(t testing.TB, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
