package main

import (
	"os"
	"path/filepath"
	"testing"

	"respectorigin/internal/clitest"
)

// TestBadWarmReplayFlagsRejected: a replay of fewer than one visit or
// under an unknown protocol is an argument error, reported before -out
// is created (a negative -revisits used to panic after truncating it).
func TestBadWarmReplayFlagsRejected(t *testing.T) {
	crawl := clitest.Build(t, "cmd/crawl")
	out := filepath.Join(t.TempDir(), "corpus.ndjson")
	for _, bad := range [][]string{
		{"-cache", "-revisits", "0"},
		{"-proto-sweep", "-revisits", "-1"},
		{"-proto", "h4"},
	} {
		clitest.RunExpectFail(t, crawl, append([]string{"-sites", "40", "-out", out}, bad...)...)
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%q: -out exists after the rejected run (stat: %v)", bad, err)
			os.Remove(out)
		}
	}
}
