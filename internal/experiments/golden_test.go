package experiments

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_quick.txt")

// goldenQuickPath holds every experiment table at QuickOptions, rendered
// exactly as `paper -exp all -quick -progress=false` prints them.
var goldenQuickPath = filepath.Join("testdata", "golden_quick.txt")

// TestExperimentTablesGolden pins the values of all experiment tables at
// quick scale. Refactors of how cells are described, built or run must
// leave the file byte-identical; a change that is meant to move results
// regenerates it with -update and shows the moved rows in its diff.
func TestExperimentTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	var b bytes.Buffer
	for _, e := range All() {
		tbl, err := e.Run(context.Background(), QuickOptions())
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		fmt.Fprintf(&b, "### %s — %s\n\n%s\n", e.ID, e.Title, tbl)
	}
	got := b.Bytes()
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenQuickPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenQuickPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenQuickPath)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %q\n want %q", i+1, g, w)
		}
	}
}
