package scenario

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// testSweep is a fast 2x3 heterogeneity x compression grid on the
// quadratic workload.
func testSweep() Sweep {
	return Sweep{
		Name: "het-comp-test",
		Base: Spec{
			Workload: "quadratic",
			Topology: Topology{Kind: "ring", Workers: 4, Machines: 2},
			Deadline: Duration(10 * time.Second),
			Seed:     1,
		},
		Axes: []Axis{
			{Name: "hetero", Values: []AxisValue{
				{Label: "homo"},
				{Label: "random6x", Patch: json.RawMessage(`{"hetero": {"kind": "random", "factor": 6}}`)},
			}},
			{Name: "compression", Values: []AxisValue{
				{Label: "none"},
				{Label: "float32", Patch: json.RawMessage(`{"compression": "float32"}`)},
				{Label: "topk10", Patch: json.RawMessage(`{"compression": "topk:0.1"}`)},
			}},
		},
	}
}

func TestCellsExpansionOrder(t *testing.T) {
	cells, err := testSweep().Cells()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"homo/none", "homo/float32", "homo/topk10",
		"random6x/none", "random6x/float32", "random6x/topk10",
	}
	if len(cells) != len(want) {
		t.Fatalf("%d cells, want %d", len(cells), len(want))
	}
	for i, c := range cells {
		if c.ID != want[i] {
			t.Errorf("cell %d = %q, want %q", i, c.ID, want[i])
		}
		if c.Spec.Name != "het-comp-test/"+want[i] {
			t.Errorf("cell %d name %q", i, c.Spec.Name)
		}
		if c.Spec.Seed == 1 {
			t.Errorf("cell %d kept the base seed; want derived", i)
		}
		if c.Spec.Seed != DeriveSeed(1, c.ID) {
			t.Errorf("cell %d seed %d != DeriveSeed", i, c.Spec.Seed)
		}
	}
	// Patches must not leak across cells: the homo cells carry no
	// hetero kind.
	if cells[3].Spec.Hetero.Kind != "random" || cells[0].Spec.Hetero.Kind != "" {
		t.Errorf("patch leakage: %+v vs %+v", cells[0].Spec.Hetero, cells[3].Spec.Hetero)
	}
}

// TestPatchPinsSeed: a patch that names "seed" keeps that seed even
// when the value equals the base seed — the "explicit seed" rule of
// DESIGN.md §4.4 must not depend on the value chosen.
func TestPatchPinsSeed(t *testing.T) {
	sw := testSweep()
	sw.Axes[1].Values[1].Patch = json.RawMessage(`{"compression": "float32", "seed": 1}`)
	cells, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if got := cells[1].Spec.Seed; got != 1 {
		t.Errorf("pinned seed = %d, want the base value 1 kept verbatim", got)
	}
	if got := cells[0].Spec.Seed; got == 1 {
		t.Errorf("unpinned cell kept the base seed; want derived")
	}
}

func TestParseRejectsTrailingData(t *testing.T) {
	if _, err := Parse([]byte(`{"workload": "cnn", "deadline": "1s"} {"workload": "svm"}`)); err == nil {
		t.Error("concatenated specs accepted")
	}
	if _, err := ParseSweep([]byte(`{"name": "x", "base": {}, "axes": []} trailing`)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestDeriveSeedProperties(t *testing.T) {
	a := DeriveSeed(1, "homo/none")
	if a != DeriveSeed(1, "homo/none") {
		t.Error("not deterministic")
	}
	if a == DeriveSeed(1, "homo/float32") {
		t.Error("different cells share a seed")
	}
	if a == DeriveSeed(2, "homo/none") {
		t.Error("different base seeds share a cell seed")
	}
	if a < 0 || DeriveSeed(-12345, "x") < 0 {
		t.Error("derived seed must be non-negative")
	}
}

func TestSweepValidation(t *testing.T) {
	sw := testSweep()
	sw.Axes = nil
	if _, err := sw.Cells(); err == nil {
		t.Error("no axes accepted")
	}
	sw = testSweep()
	sw.Axes[0].Values = nil
	if _, err := sw.Cells(); err == nil {
		t.Error("empty axis accepted")
	}
	sw = testSweep()
	sw.Axes[0].Values[1].Label = "homo"
	if _, err := sw.Cells(); err == nil {
		t.Error("duplicate label accepted")
	}
	sw = testSweep()
	sw.Axes[0].Values[1].Label = "a/b"
	if _, err := sw.Cells(); err == nil {
		t.Error("slash in label accepted")
	}
	sw = testSweep()
	sw.Axes[1].Values[1].Patch = json.RawMessage(`{"compresion": "float32"}`)
	if _, err := sw.Cells(); err == nil {
		t.Error("typoed patch field accepted")
	}
	sw = testSweep()
	sw.Axes[1].Values[1].Patch = json.RawMessage(`{"compression": "gzip"}`)
	if _, err := sw.Cells(); err == nil {
		t.Error("invalid cell spec accepted")
	}
}

func TestSweepJSONRoundTrip(t *testing.T) {
	sw := testSweep()
	js, err := sw.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSweep(js)
	if err != nil {
		t.Fatal(err)
	}
	js2, err := back.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js, js2) {
		t.Errorf("sweep round trip not byte-identical:\n%s\nvs\n%s", js, js2)
	}
	cells, err := back.Cells()
	if err != nil || len(cells) != 6 {
		t.Errorf("parsed sweep expands to %d cells (%v)", len(cells), err)
	}
}

// TestSweepDeterminism is the acceptance bar: the same grid run twice,
// and at widths 1 vs N, produces byte-identical per-cell JSON reports
// and aggregate.
func TestSweepDeterminism(t *testing.T) {
	sw := testSweep()
	serial, err := sw.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	again, err := sw.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := sw.Run(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Cells) != 6 {
		t.Fatalf("%d cells", len(serial.Cells))
	}
	for i := range serial.Cells {
		if !bytes.Equal(serial.Cells[i].JSON, again.Cells[i].JSON) {
			t.Errorf("cell %s: repeated run differs", serial.Cells[i].ID)
		}
		if !bytes.Equal(serial.Cells[i].JSON, wide.Cells[i].JSON) {
			t.Errorf("cell %s: width 1 vs 6 differs", serial.Cells[i].ID)
		}
	}
	a1, err := serial.AggregateJSON()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := wide.AggregateJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a1, a2) {
		t.Error("aggregate JSON differs across widths")
	}
}

// TestSweepCellStandaloneReproducible: running one cell's spec alone
// (outside any sweep) reproduces the sweep's report for that cell —
// the cell-by-cell reproducibility clause of DESIGN.md §4.4.
func TestSweepCellStandaloneReproducible(t *testing.T) {
	sw := testSweep()
	res, err := sw.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	pick := cells[4] // random6x/float32
	solo, err := pick.Spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	rep := buildReport(pick.ID, pick.Spec, solo)
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js, res.Cells[4].JSON) {
		t.Errorf("standalone cell run differs from sweep cell:\n%s\nvs\n%s", js, res.Cells[4].JSON)
	}
}

func TestSweepReportsVaryAcrossCells(t *testing.T) {
	res, err := testSweep().Run(0)
	if err != nil {
		t.Fatal(err)
	}
	// Compression shrinks the modeled payload, so the topk cell must
	// move fewer bytes than the uncompressed one under the same
	// heterogeneity.
	none, ok1 := res.Cell("homo/none")
	topk, ok2 := res.Cell("homo/topk10")
	if !ok1 || !ok2 {
		t.Fatal("missing cells")
	}
	if topk.Net.Bytes >= none.Net.Bytes {
		t.Errorf("topk cell moved %d bytes, none cell %d — compression not modeled", topk.Net.Bytes, none.Net.Bytes)
	}
	var table strings.Builder
	res.RenderTable(&table)
	for _, want := range []string{"cell", "homo/none", "random6x/topk10", "final-loss"} {
		if !strings.Contains(table.String(), want) {
			t.Errorf("table missing %q:\n%s", want, table.String())
		}
	}
	if _, ok := res.Cell("nope"); ok {
		t.Error("unknown cell id found")
	}
}
