package hop_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"hop"
	"hop/internal/hetero"
)

// TestFacadeEndToEnd exercises the public API exactly as the README
// quickstart does.
func TestFacadeEndToEnd(t *testing.T) {
	g := hop.RingBased(8)
	hop.PlaceEvenly(g, 2)
	res, err := hop.Run(hop.Options{
		Core: hop.Config{
			Graph:     g,
			MaxIG:     4,
			Backup:    1,
			SendCheck: true,
			MaxIter:   30,
			Seed:      1,
		},
		Trainer:      hop.NewQuadratic([]float64{5, 5}, []float64{1, 2}, 0.2, 0.02),
		Compute:      hetero.Compute{Base: 50 * time.Millisecond, Slow: hop.RandomSlowdown(6, 1.0/8)},
		PayloadBytes: 1 << 18,
		Seed:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlock != nil {
		t.Fatal(res.Deadlock)
	}
	if res.Metrics.Iterations() != 8*30 {
		t.Errorf("iterations %d", res.Metrics.Iterations())
	}
	for w := 0; w < 8; w++ {
		if loss := res.Trainers[w].EvalLoss(); loss > 0.5 {
			t.Errorf("worker %d loss %g", w, loss)
		}
	}
	// Table 1 bounds are reachable through the façade too.
	bounds := hop.NewBounds(hop.Config{Graph: g, MaxIG: 4, Backup: 1})
	if bounds.Gap(1, 0) == hop.Unbounded {
		t.Error("token queues should bound the gap")
	}
	if res.Engine.Gaps().MaxGapOverall() > 4*g.Diameter() {
		t.Error("observed gap exceeds the token-derived bound")
	}
}

// TestTopologyHelpers covers the façade topology surface.
func TestTopologyHelpers(t *testing.T) {
	if hop.Ring(8).N() != 8 || hop.RingBased(8).N() != 8 || hop.DoubleRing(8).N() != 8 || hop.Complete(5).N() != 5 {
		t.Error("builders")
	}
	for _, g := range []*hop.Graph{hop.Setting1(), hop.Setting2(), hop.Setting3()} {
		if g.N() != 8 || g.NumMachines() != 3 {
			t.Errorf("%s: n=%d machines=%d", g.Name, g.N(), g.NumMachines())
		}
	}
	g := hop.NewGraph("custom", 3)
	g.AddBiEdge(0, 1)
	g.AddBiEdge(1, 2)
	if gap := hop.SpectralGap(g.MetropolisWeights()); gap <= 0 || gap > 1 {
		t.Errorf("gap %g", gap)
	}
}

// TestRunExperimentFacade runs the cheapest experiment through the
// façade.
func TestRunExperimentFacade(t *testing.T) {
	var sb strings.Builder
	if err := hop.RunExperiment("fig21", hop.ScaleQuick, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "spectral gap") {
		t.Errorf("unexpected report:\n%s", sb.String())
	}
	if err := hop.RunExperiment("nope", hop.ScaleQuick, &sb); err == nil {
		t.Error("unknown experiment should fail")
	}
	if len(hop.Experiments()) != 12 {
		t.Errorf("experiments: %d", len(hop.Experiments()))
	}
	// A report that cannot be written is a failed experiment.
	if err := hop.RunExperiment("fig21", hop.ScaleQuick, failWriter{}); !errors.Is(err, errFull) {
		t.Errorf("write to a full device returned %v, want %v", err, errFull)
	}
}

var errFull = errors.New("no space left on device")

// failWriter fails every write, like stdout redirected to /dev/full.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errFull }

// TestScenarioFacade drives the declarative layer through the public
// API: parse a spec, run it, and run a built-in sweep.
func TestScenarioFacade(t *testing.T) {
	spec, err := hop.ParseScenario([]byte(`{
		"workload": "quadratic",
		"topology": {"kind": "ring", "workers": 4, "machines": 2},
		"deadline": "5s",
		"seed": 9
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := hop.RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Iterations() == 0 {
		t.Error("no iterations")
	}

	if len(hop.Sweeps()) == 0 {
		t.Fatal("no built-in sweeps")
	}
	sw, err := hop.LookupSweep("het-comp")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) < 6 {
		t.Errorf("het-comp has %d cells, want >= 6 (2x3 grid)", len(cells))
	}
	if _, err := hop.ParseSweep([]byte(`{"axes": "nope"}`)); err == nil {
		t.Error("bad sweep accepted")
	}
}

// TestWorkloadConstructors sanity-checks the workload façade.
func TestWorkloadConstructors(t *testing.T) {
	if hop.NewCNN(hop.DefaultCNNConfig()).NumParams() == 0 {
		t.Error("cnn")
	}
	if hop.NewSVM(hop.DefaultSVMConfig()).NumParams() == 0 {
		t.Error("svm")
	}
	q := hop.NewQuadratic([]float64{1}, []float64{0}, 0.1, 0)
	if q.EvalLoss() != 0.5 {
		t.Errorf("quadratic loss %g", q.EvalLoss())
	}
}

// TestSlowdownFacade covers the heterogeneity helpers.
func TestSlowdownFacade(t *testing.T) {
	if hop.NoSlowdown().String() == "" {
		t.Error("none")
	}
	if hop.RandomSlowdown(6, 0.1).String() == "" {
		t.Error("random")
	}
	if hop.DeterministicSlowdown(map[int]float64{0: 4}).String() == "" {
		t.Error("det")
	}
	if hop.Default1GbE().Inter.Bandwidth != 125e6 {
		t.Error("net config")
	}
}
