package main

import (
	"os"
	"path/filepath"
	"testing"

	"respectorigin/internal/clitest"
)

// TestBadArgumentsRejected: an unknown -format and a -shard outside
// [0, -shards) are argument errors, reported before -out is created.
func TestBadArgumentsRejected(t *testing.T) {
	crawl := clitest.Build(t, "cmd/crawl")
	out := filepath.Join(t.TempDir(), "corpus.ndjson")
	for _, bad := range [][]string{
		{"-format", "bogus"},
		{"-shards", "2", "-shard", "2"},
		{"-shards", "0", "-shard", "0"},
	} {
		clitest.RunExpectFail(t, crawl, append([]string{"-sites", "40", "-out", out}, bad...)...)
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%q: -out exists after the rejected run (stat: %v)", bad, err)
			os.Remove(out)
		}
	}
}
