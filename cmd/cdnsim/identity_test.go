package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"respectorigin/internal/clitest"
)

// TestDeploymentByteIdentity holds the gates the single Visit path
// leans on: an explicit empty fault plan with no retry budget prints
// exactly what the flag defaults print (the zero plan takes no fault
// step), a cache knob without -cache changes nothing (the cache is off
// by default), and a traced run, which keeps every day on the visit
// loop, prints exactly what an untraced run prints (the recorder is a
// sidecar). The planned days print the same at any -workers count, for
// the whole deployment and for the passive run alone.
func TestDeploymentByteIdentity(t *testing.T) {
	cdnsim := clitest.Build(t, "cmd/cdnsim")
	deploy := []string{"-sample", "800", "-phase", "all", "-days", "12"}
	base := clitest.Run(t, cdnsim, deploy...)
	if len(base) == 0 {
		t.Fatal("cdnsim printed nothing")
	}
	trace := filepath.Join(t.TempDir(), "trace.ndjson")
	for _, extra := range [][]string{
		{"-faults", "", "-retries", "0"},
		{"-ticket-lifetime", "60"},
		{"-trace", trace},
		{"-workers", "1"},
		{"-workers", "2"},
		{"-workers", "4"},
		{"-workers", "16"},
	} {
		if got := clitest.Run(t, cdnsim, append(deploy, extra...)...); !bytes.Equal(got, base) {
			t.Errorf("%q differs from the defaults:\n%s\n---\n%s", extra, got, base)
		}
	}
	if len(clitest.ReadFile(t, trace)) == 0 {
		t.Error("trace file is empty")
	}

	passive := []string{"-sample", "800", "-phase", "passive"}
	one := clitest.Run(t, cdnsim, append(passive, "-workers", "1")...)
	for _, workers := range []string{"2", "4", "16"} {
		if got := clitest.Run(t, cdnsim, append(passive, "-workers", workers)...); !bytes.Equal(got, one) {
			t.Errorf("-phase passive -workers %s differs from -workers 1:\n%s\n---\n%s", workers, got, one)
		}
	}
}
