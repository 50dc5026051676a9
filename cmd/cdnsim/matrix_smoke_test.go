package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"respectorigin/internal/clitest"
)

// TestMatrixSmoke drives the -matrix surface of the built binary: the
// table and the cell NDJSON are byte-identical at -workers 1 and 4,
// axis selectors subset the cross-product, and an unknown persona is
// rejected.
func TestMatrixSmoke(t *testing.T) {
	dir := t.TempDir()
	cdnsim := clitest.Build(t, "cmd/cdnsim")

	nd1, nd4 := filepath.Join(dir, "mx1.ndjson"), filepath.Join(dir, "mx4.ndjson")
	table1 := clitest.Run(t, cdnsim, "-matrix", "-sites", "60", "-seed", "1", "-workers", "1", "-out", nd1)
	table4 := clitest.Run(t, cdnsim, "-matrix", "-sites", "60", "-seed", "1", "-workers", "4", "-out", nd4)
	if !bytes.Equal(table1, table4) {
		t.Errorf("table differs between -workers 1 and 4:\n%s\n---\n%s", table1, table4)
	}
	if cells := clitest.ReadFile(t, nd1); len(cells) == 0 || !bytes.Equal(cells, clitest.ReadFile(t, nd4)) {
		t.Errorf("cell NDJSON empty or different between -workers 1 and 4 (%d bytes at 1)", len(cells))
	}

	subset := clitest.Run(t, cdnsim, "-matrix", "-sites", "40", "-personas", "chrome,mobile", "-archetypes", "sharded", "-profiles", "wired,3g", "-dns", "do53")
	if rows := bytes.Count(subset, []byte("\n")) - 2; rows != 2*1*2*1 {
		t.Errorf("selector subset printed %d cells, want 4:\n%s", rows, subset)
	}
	clitest.RunExpectFail(t, cdnsim, "-matrix", "-sites", "40", "-personas", "netscape")
}
