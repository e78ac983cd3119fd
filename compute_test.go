package hop_test

// compute_test.go — determinism guarantees of the parallel compute
// plane (DESIGN.md §3): figure reproductions must be byte-identical at
// every compute-plane width, because a gradient step is a pure closure
// that runs exactly once, wherever it runs.

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"hop"
)

// callSiteSpecs are small heterogeneous CNN clusters, one per iteration
// mode the figure below does not reach: with fig12's standard parallel
// graph they cover both computation graphs of Protocol.iterate (the
// parallel one, also with a Prague group, and the serial one, also with
// NOTIFY-ACK's ACK gate) and so both of its Compute/EndCompute call
// sites.
var callSiteSpecs = []hop.ScenarioProtocol{
	{Mode: "prague", GroupSize: 4},
	{Serial: true, MaxIG: 4, Backup: 1},
	{Mode: "notify-ack"},
}

// runFingerprint renders everything a run decided and computed: clock,
// counters, the loss series and every replica's parameter bits.
func runFingerprint(t *testing.T, buf *bytes.Buffer, p hop.ScenarioProtocol) {
	t.Helper()
	res, err := hop.RunScenario(hop.Scenario{
		Workload: "cnn",
		Topology: hop.ScenarioTopology{Kind: "ring-based", Workers: 8, Machines: 2},
		Protocol: p,
		Hetero:   hop.ScenarioHetero{Kind: "random", Factor: 6, Prob: 0.125},
		MaxIter:  10,
		Seed:     7,
	})
	if err != nil {
		t.Fatalf("%+v: %v", p, err)
	}
	fmt.Fprintf(buf, "%+v: %v %d %+v %+v\n", p, res.Duration, res.Metrics.Iterations(), res.Engine.Stats(), res.Fabric.Stats())
	res.Metrics.Eval.Render(buf)
	res.Metrics.Train.Render(buf)
	for _, tr := range res.Trainers {
		for _, v := range tr.Params() {
			fmt.Fprintf(buf, "%x", math.Float64bits(v))
		}
		buf.WriteByte('\n')
	}
}

// TestFigureOutputComputeWidthInvariant regenerates the Figure 12
// quick reproduction — the CNN + SVM sweep over all three topologies,
// the heaviest GEMM consumer in the registry — and one run per
// remaining iteration mode at compute-plane widths 1, 2 and 4, and
// requires the outputs to be byte-identical: width 1 runs every
// gradient step inline on the scheduler's goroutine, widths 2 and 4 run
// them concurrently on the pool.
func TestFigureOutputComputeWidthInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("three full fig12 quick reproductions; skipped with -short")
	}
	if raceEnabled {
		t.Skip("runs ~10 minutes under the race detector; the race CI step would hit the per-binary test timeout")
	}
	defer hop.SetComputeWorkers(0)
	run := func(workers int) []byte {
		hop.SetComputeWorkers(workers)
		var buf bytes.Buffer
		if err := hop.RunExperiment("fig12", hop.ScaleQuick, &buf); err != nil {
			t.Fatalf("fig12 at %d workers: %v", workers, err)
		}
		for _, p := range callSiteSpecs {
			runFingerprint(t, &buf, p)
		}
		return buf.Bytes()
	}
	seq := run(1)
	for _, workers := range []int{2, 4} {
		par := run(workers)
		if bytes.Equal(seq, par) {
			continue
		}
		i := 0
		for i < len(seq) && i < len(par) && seq[i] == par[i] {
			i++
		}
		lo, hi := i-40, i+40
		if lo < 0 {
			lo = 0
		}
		clip := func(b []byte) string {
			h := hi
			if h > len(b) {
				h = len(b)
			}
			if lo >= h {
				return ""
			}
			return string(b[lo:h])
		}
		t.Fatalf("output diverges at byte %d:\n  1 worker:  …%s…\n  %d workers: …%s…", i, clip(seq), workers, clip(par))
	}
}
