package experiments

import (
	"bytes"
	"flag"
	"os"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "regenerate testdata/quick_reports.golden")

// TestQuickReportsGolden pins the full rendered text of the quick-scale
// figure reports. A refactor that claims "same behaviour" must leave
// this file untouched; a change that means to move a number
// regenerates it with -update and explains the diff.
func TestQuickReportsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden floats were recorded on amd64")
	}
	const path = "testdata/quick_reports.golden"
	ids := []string{"table1", "fig21", "deadlock"}
	if *update || !testing.Short() {
		ids = append(ids, "fig13", "fig18", "fig12", "fig14", "fig15", "fig17", "fig19", "fig20")
	}
	var got bytes.Buffer
	for _, id := range ids {
		e, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(Quick)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if _, err := rep.WriteTo(&got); err != nil {
			t.Fatal(err)
		}
	}
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Under -short the slow figures are not run; the fast ones are the
	// golden's prefix.
	if testing.Short() && len(want) > got.Len() {
		want = want[:got.Len()]
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("quick reports differ from %s (rerun with -update only if the change is meant to move them)\n--- got ---\n%s", path, got.String())
	}
}
