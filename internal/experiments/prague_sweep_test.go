package experiments

// Sweep acceptance for the Prague protocol: every built-in sweep must
// take `protocol: prague` as one more patch axis — the whole grid
// re-run under the second protocol — with byte-identical per-cell
// reports at any runner width. The patch resets every Hop knob a
// previous axis may have set (Prague composes with none of them), so
// it crosses cleanly even with the straggler-topo sweep's skip-10
// protocol axis.

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"hop/internal/scenario"
)

var praguePatch = json.RawMessage(`{"protocol": {
	"mode": "prague", "group_size": 4, "group_quorum": 2,
	"max_ig": 0, "backup": 0, "staleness": 0, "send_check": false,
	"skip_max_jump": 0, "serial": false}}`)

func TestBuiltinSweepsAcceptPragueAxis(t *testing.T) {
	for _, sw := range Sweeps() {
		sw := sw
		t.Run(sw.Name, func(t *testing.T) {
			t.Parallel()
			// Short deadline for CI; the grid shape is what's under test.
			sw.Base.Deadline = scenario.Duration(2 * time.Second)
			sw.Axes = append(sw.Axes, scenario.Axis{
				Name: "mode",
				Values: []scenario.AxisValue{
					{Label: "hop"},
					{Label: "prague", Patch: praguePatch},
				},
			})
			cells, err := sw.Cells()
			if err != nil {
				t.Fatalf("prague axis broke cell expansion: %v", err)
			}
			prague := 0
			for _, c := range cells {
				if c.Spec.Protocol.Mode == "prague" {
					prague++
				}
			}
			if prague == 0 || prague != len(cells)/2 {
				t.Fatalf("%d of %d cells run prague, want exactly half", prague, len(cells))
			}

			serial, err := sw.Run(1)
			if err != nil {
				t.Fatal(err)
			}
			wide, err := sw.Run(4)
			if err != nil {
				t.Fatal(err)
			}
			for i := range serial.Cells {
				if !bytes.Equal(serial.Cells[i].JSON, wide.Cells[i].JSON) {
					t.Errorf("cell %s: width 1 vs 4 reports differ", serial.Cells[i].ID)
				}
			}
			a1, err := serial.AggregateJSON()
			if err != nil {
				t.Fatal(err)
			}
			a4, err := wide.AggregateJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a1, a4) {
				t.Error("aggregate JSON differs across widths")
			}
		})
	}
}
