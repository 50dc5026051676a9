// Package examples holds the runnable walkthroughs, one main package a
// directory; this test builds and runs each of them.
package examples

import (
	"bytes"
	"os"
	"testing"

	"respectorigin/internal/clitest"
)

// Every example builds, exits 0 and prints something on its first line.
func TestExamplesRun(t *testing.T) {
	dirs, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		ran++
		t.Run(d.Name(), func(t *testing.T) {
			out := clitest.Run(t, clitest.Build(t, "examples/"+d.Name()))
			if first, _, _ := bytes.Cut(out, []byte("\n")); len(bytes.TrimSpace(first)) == 0 {
				t.Errorf("first line of output is empty:\n%s", out)
			}
		})
	}
	if ran == 0 {
		t.Error("no example directories found")
	}
}
