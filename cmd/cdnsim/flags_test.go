package main

import (
	"os/exec"
	"testing"

	"respectorigin/internal/clitest"
)

// TestBadArgumentsRejected: a replay of fewer than one visit or under an
// unknown protocol is an argument error, not a table over "0 visit(s)",
// and an unknown -phase is rejected before the deployment is built and
// Figure 6 printed.
func TestBadArgumentsRejected(t *testing.T) {
	cdnsim := clitest.Build(t, "cmd/cdnsim")
	for _, bad := range [][]string{
		{"-cache", "-revisits", "0"},
		{"-proto-sweep", "-revisits", "-1"},
		{"-proto", "h4"},
	} {
		clitest.RunExpectFail(t, cdnsim, append([]string{"-sample", "200"}, bad...)...)
	}
	if out, err := exec.Command(cdnsim, "-sample", "200", "-phase", "nowhere").Output(); err == nil || len(out) != 0 {
		t.Errorf("-phase nowhere: err %v, stdout %q; want a failure with nothing printed", err, out)
	}
}
