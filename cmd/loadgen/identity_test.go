package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"respectorigin/internal/clitest"
)

// TestLoadgenSmoke drives the built binary through the open-loop
// serving mode's determinism contract: the NDJSON summary and stdout are
// byte-identical at -workers 1, 4 and 16, and a flash-crowd rate sweep
// on a small PoP set runs to completion.
func TestLoadgenSmoke(t *testing.T) {
	dir := t.TempDir()
	loadgen := clitest.Build(t, "cmd/loadgen")

	var baseOut, baseNDJSON []byte
	for _, workers := range []string{"1", "4", "16"} {
		path := filepath.Join(dir, "lg"+workers+".ndjson")
		stdout := clitest.Run(t, loadgen, "-users", "20000", "-seed", "1", "-workers", workers, "-out", path)
		ndjson := clitest.ReadFile(t, path)
		if len(stdout) == 0 || len(ndjson) == 0 {
			t.Fatalf("-workers %s: %d bytes of stdout, %d of NDJSON", workers, len(stdout), len(ndjson))
		}
		if baseOut == nil {
			baseOut, baseNDJSON = stdout, ndjson
			continue
		}
		if !bytes.Equal(ndjson, baseNDJSON) {
			t.Errorf("NDJSON at -workers %s differs from -workers 1", workers)
		}
		if !bytes.Equal(stdout, baseOut) {
			t.Errorf("stdout at -workers %s differs from -workers 1:\n%s\n---\n%s", workers, stdout, baseOut)
		}
	}

	clitest.Run(t, loadgen, "-users", "5000", "-arrival", "flash", "-pops", "2", "-pop-servers", "2", "-sweep", "1,8")
}
