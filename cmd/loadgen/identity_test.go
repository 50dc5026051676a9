package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadgenSmoke drives the built binary through the open-loop
// serving mode's determinism contract: the NDJSON summary and stdout are
// byte-identical at -workers 1, 4 and 16, and a flash-crowd rate sweep
// on a small PoP set runs to completion.
func TestLoadgenSmoke(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	dir := t.TempDir()
	loadgen := filepath.Join(dir, "loadgen")
	if out, err := exec.Command(goTool, "build", "-o", loadgen, "respectorigin/cmd/loadgen").CombinedOutput(); err != nil {
		t.Fatalf("go build cmd/loadgen: %v\n%s", err, out)
	}
	run := func(args ...string) []byte {
		t.Helper()
		var stderr bytes.Buffer
		cmd := exec.Command(loadgen, args...)
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("loadgen %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
		}
		return out
	}

	var baseOut, baseNDJSON []byte
	for _, workers := range []string{"1", "4", "16"} {
		path := filepath.Join(dir, "lg"+workers+".ndjson")
		stdout := run("-users", "20000", "-seed", "1", "-workers", workers, "-out", path)
		ndjson, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
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

	run("-users", "5000", "-arrival", "flash", "-pops", "2", "-pop-servers", "2", "-sweep", "1,8")
}
