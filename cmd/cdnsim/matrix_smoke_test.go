package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"respectorigin/internal/clitest"
)

// TestMatrixSmoke drives the -matrix surface of the built binary: the
// table and the cell NDJSON are byte-identical at -workers 1, 2, 4 and
// 16 (2 spreads three archetypes unevenly; 16 exceeds both the
// archetypes and the replay groups), axis selectors subset the
// cross-product, and an unknown persona is rejected.
func TestMatrixSmoke(t *testing.T) {
	dir := t.TempDir()
	cdnsim := clitest.Build(t, "cmd/cdnsim")

	nd1 := filepath.Join(dir, "mx1.ndjson")
	table1 := clitest.Run(t, cdnsim, "-matrix", "-sites", "60", "-seed", "1", "-workers", "1", "-out", nd1)
	cells1 := clitest.ReadFile(t, nd1)
	if len(cells1) == 0 {
		t.Fatal("cell NDJSON empty at -workers 1")
	}
	for _, w := range []string{"2", "4", "16"} {
		nd := filepath.Join(dir, "mx"+w+".ndjson")
		table := clitest.Run(t, cdnsim, "-matrix", "-sites", "60", "-seed", "1", "-workers", w, "-out", nd)
		if !bytes.Equal(table1, table) {
			t.Errorf("table differs between -workers 1 and %s:\n%s\n---\n%s", w, table1, table)
		}
		if !bytes.Equal(cells1, clitest.ReadFile(t, nd)) {
			t.Errorf("cell NDJSON differs between -workers 1 and %s", w)
		}
	}

	subset := clitest.Run(t, cdnsim, "-matrix", "-sites", "40", "-personas", "chrome,mobile", "-archetypes", "sharded", "-profiles", "wired,3g", "-dns", "do53")
	if rows := bytes.Count(subset, []byte("\n")) - 2; rows != 2*1*2*1 {
		t.Errorf("selector subset printed %d cells, want 4:\n%s", rows, subset)
	}
	clitest.RunExpectFail(t, cdnsim, "-matrix", "-sites", "40", "-personas", "netscape")
}
