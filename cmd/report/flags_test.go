package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"respectorigin/internal/clitest"
)

// TestBadWarmReplayFlagsRejected: a replay of fewer than one visit or
// under an unknown protocol is an argument error, not a table over
// "0 visit(s)".
func TestBadWarmReplayFlagsRejected(t *testing.T) {
	report := clitest.Build(t, "cmd/report")
	for _, bad := range [][]string{
		{"-cache", "-revisits", "0"},
		{"-proto-sweep", "-revisits", "-1"},
		{"-proto", "h4"},
	} {
		clitest.RunExpectFail(t, report, append([]string{"-sites", "40"}, bad...)...)
	}
}

// TestEmptyCorpusRejected: a corpus with no pages — an empty -in file,
// or the manifest of an empty shard — exits 1 with "corpus has no
// pages" before any table, rather than panicking halfway through the
// figures.
func TestEmptyCorpusRejected(t *testing.T) {
	dir := t.TempDir()
	crawl, report := clitest.Build(t, "cmd/crawl"), clitest.Build(t, "cmd/report")
	empty := filepath.Join(dir, "empty.ndjson")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// One site split over two shards leaves shard 0 empty.
	shard := filepath.Join(dir, "s0.col")
	clitest.Run(t, crawl, "-sites", "1", "-shards", "2", "-shard", "0", "-format", "columnar", "-out", shard)

	for _, args := range [][]string{
		{"-in", empty},
		{"-manifest", shard + ".manifest.json"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(report, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("report %v: %v, want exit status 1\n%s", args, err, stderr.Bytes())
			continue
		}
		if stdout.Len() != 0 {
			t.Errorf("report %v printed before failing:\n%s", args, stdout.Bytes())
		}
		if !strings.Contains(stderr.String(), "corpus has no pages") {
			t.Errorf("report %v: stderr %q, want \"corpus has no pages\"", args, stderr.String())
		}
	}
}
