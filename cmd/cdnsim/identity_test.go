package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestDeploymentByteIdentity holds the two gates the single Visit path
// leans on: an explicit empty fault plan with no retry budget prints
// exactly what the flag defaults print (the zero plan takes no fault
// step), and a traced run prints exactly what an untraced run prints
// (the recorder is a sidecar).
func TestDeploymentByteIdentity(t *testing.T) {
	dir := t.TempDir()
	cdnsim := buildCmd(t, dir, "cdnsim")
	deploy := []string{"-sample", "800", "-phase", "all", "-days", "12"}
	base := run(t, cdnsim, deploy...)
	if len(base) == 0 {
		t.Fatal("cdnsim printed nothing")
	}
	if got := run(t, cdnsim, append(deploy, "-faults", "", "-retries", "0")...); !bytes.Equal(got, base) {
		t.Errorf("-faults '' -retries 0 differs from the defaults:\n%s\n---\n%s", got, base)
	}
	trace := filepath.Join(dir, "trace.ndjson")
	if got := run(t, cdnsim, append(deploy, "-trace", trace)...); !bytes.Equal(got, base) {
		t.Errorf("traced run differs from untraced:\n%s\n---\n%s", got, base)
	}
	if fi, err := os.Stat(trace); err != nil || fi.Size() == 0 {
		t.Errorf("trace file missing or empty: %v", err)
	}
}
