package main

import (
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
