package main

import (
	"errors"
	"strings"
	"testing"

	"hop/internal/experiments"
)

// failWriter fails every write, like stdout redirected to /dev/full.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("no space left on device") }

// TestRunAllCountsWriteFailures: `hopbench -exp fig21 > /dev/full` must
// exit non-zero, so a report that cannot be written is a failed
// experiment.
func TestRunAllCountsWriteFailures(t *testing.T) {
	e, err := experiments.Lookup("fig21")
	if err != nil {
		t.Fatal(err)
	}
	entries := []experiments.Entry{e}
	if failed := runAll(failWriter{}, entries, experiments.Quick, false); failed != 1 {
		t.Errorf("unwritable report: %d failures, want 1", failed)
	}
	var out strings.Builder
	if failed := runAll(&out, entries, experiments.Quick, false); failed != 0 || !strings.Contains(out.String(), "[fig21 done in") {
		t.Errorf("writable report: %d failures, output:\n%s", failed, out.String())
	}
}
