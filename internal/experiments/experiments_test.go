package experiments

import (
	"io"
	"strings"
	"testing"
)

// The fast experiments run in full during tests; the heavier
// cluster-sweep figures run only outside -short (they are also the
// bench targets in the repository root).

func TestRegistryLookups(t *testing.T) {
	if len(Registry) != 12 {
		t.Errorf("registry has %d entries", len(Registry))
	}
	for _, e := range Registry {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("malformed entry %+v", e)
		}
		if _, err := Lookup(e.ID); err != nil {
			t.Errorf("Lookup(%s): %v", e.ID, err)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown id should fail")
	}
	if len(IDs()) != len(Registry) {
		t.Error("IDs length")
	}
}

func TestScaleStrings(t *testing.T) {
	if Quick.String() != "quick" || Full.String() != "full" {
		t.Error("scale strings")
	}
}

func TestProfilesSane(t *testing.T) {
	for _, p := range profiles() {
		if p.ComputeBase <= 0 || p.PayloadBytes <= 0 || p.EvalEvery <= 0 {
			t.Errorf("%s: bad profile %+v", p.Name, p)
		}
		if p.Deadline[Quick] <= 0 || p.Deadline[Full] <= p.Deadline[Quick] {
			t.Errorf("%s: bad deadlines", p.Name)
		}
		tr := p.NewTrainer()
		if len(tr.Params()) == 0 {
			t.Errorf("%s: empty trainer", p.Name)
		}
	}
}

func TestPaperTopologies(t *testing.T) {
	for _, kind := range []string{"ring", "ring-based", "double-ring"} {
		g, err := paperTopology(kind).BuildSeeded(0)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if g.N() != 16 || g.NumMachines() != 4 {
			t.Errorf("%s: n=%d machines=%d", kind, g.N(), g.NumMachines())
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
	}
	if _, err := paperTopology("mystery").BuildSeeded(0); err == nil {
		t.Error("unknown graph kind should fail to build")
	}
}

// TestBuiltinSweepsExpand keeps every registered sweep expandable and
// its cells resolvable without running them.
func TestBuiltinSweepsExpand(t *testing.T) {
	if len(SweepNames()) != len(Sweeps()) {
		t.Error("sweep name count")
	}
	for _, sw := range Sweeps() {
		cells, err := sw.Cells()
		if err != nil {
			t.Errorf("%s: %v", sw.Name, err)
			continue
		}
		if len(cells) < 4 {
			t.Errorf("%s: only %d cells", sw.Name, len(cells))
		}
		if _, err := LookupSweep(sw.Name); err != nil {
			t.Errorf("LookupSweep(%s): %v", sw.Name, err)
		}
	}
	if _, err := LookupSweep("nope"); err == nil {
		t.Error("unknown sweep should fail")
	}
}

func TestFig21SpectralStructure(t *testing.T) {
	rep, err := Fig21(Quick)
	if err != nil {
		t.Fatal(err)
	}
	g1, g2, g3 := rep.Metrics["setting1-gap"], rep.Metrics["setting2-gap"], rep.Metrics["setting3-gap"]
	if !(g2 < g1 && g3 < g1) {
		t.Errorf("placement-aware gaps (%g, %g) should be below baseline %g", g2, g3, g1)
	}
	// Paper: settings 2 and 3 nearly identical (0.2682 vs 0.2688).
	ratio := rep.Metrics["gap-ratio-32"]
	if ratio < 0.7 || ratio > 1.3 {
		t.Errorf("settings 2 and 3 should have near-identical gaps, ratio %g", ratio)
	}
}

func TestTable1BoundsHold(t *testing.T) {
	rep, err := Table1(Quick)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range rep.Metrics {
		if strings.HasSuffix(k, "violations") && v != 0 {
			t.Errorf("%s = %g", k, v)
		}
	}
	// The bounds must be *attained* somewhere (they are tight):
	// backup+tokens reaches max_ig = 3 on both graphs.
	if got := rep.Metrics["ring-8/backup+tokens(maxig=3)/max-adjacent-gap"]; got != 3 {
		t.Errorf("backup+tokens adjacent gap = %g, want 3 (tight)", got)
	}
}

func TestDeadlockDemo(t *testing.T) {
	rep, err := FigDeadlock(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics["bipartite-iterations"] != 240 || rep.Metrics["odd-ring-deadlocked"] != 1 {
		t.Errorf("demo metrics %+v", rep.Metrics)
	}
}

// TestFig13DecentralizedBeatsPS holds Figure 13 to its claim rather
// than to its digits: on both workloads, decentralized training reaches
// the target loss sooner than the BSP parameter server, in the
// homogeneous and in the heterogeneous environment (§7.3.2).
func TestFig13DecentralizedBeatsPS(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep")
	}
	rep, err := Fig13(Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range profiles() {
		ps, ok := rep.Series[key(p.Name, "ps-bsp", "loss-vs-time")].TimeToValue(p.TargetLoss)
		if !ok {
			t.Errorf("%s: the parameter server never reached loss %g", p.Name, p.TargetLoss)
			continue
		}
		for _, env := range []string{"dec-homo", "dec-hetero"} {
			dec, ok := rep.Series[key(p.Name, env, "loss-vs-time")].TimeToValue(p.TargetLoss)
			if !ok || dec >= ps {
				t.Errorf("%s/%s: time to loss %g is %v (reached: %t), want below the parameter server's %v", p.Name, env, p.TargetLoss, dec, ok, ps)
			}
		}
	}
}

func TestFig16BackupSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep")
	}
	rep, err := Fig16(Quick)
	if err != nil {
		t.Fatal(err)
	}
	speedup := rep.Metrics["iter-speedup"]
	// Paper reports up to 1.81x; any value meaningfully above 1 and
	// below the 6x slowdown bound reproduces the claim's shape.
	if speedup < 1.1 || speedup > 3 {
		t.Errorf("backup-worker iteration speedup %g outside plausible band [1.1, 3]", speedup)
	}
}

func TestFig18SkipNeutralizesStraggler(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep")
	}
	rep, err := Fig18(Quick)
	if err != nil {
		t.Fatal(err)
	}
	noSkip := rep.Metrics["slowdown-no-skip"]
	withSkip := rep.Metrics["slowdown-with-skip"]
	// Paper: 3.9x -> ~1.1x.
	if noSkip < 2 {
		t.Errorf("straggler influence without skip %g, want >= 2 (paper 3.9)", noSkip)
	}
	if withSkip > 1.5 {
		t.Errorf("straggler influence with skip %g, want <= 1.5 (paper ~1.1)", withSkip)
	}
	if rep.Metrics["jumps"] == 0 {
		t.Error("no jumps executed")
	}
}

func TestReportRendering(t *testing.T) {
	rep := newReport("x", "title")
	rep.printf("hello %d\n", 42)
	rep.metric("m", 1.5)
	var s strings.Builder
	if _, err := rep.WriteTo(&s); err != nil {
		t.Fatal(err)
	}
	out := s.String()
	for _, want := range []string{"=== x: title ===", "hello 42", "m", "1.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	var devnull strings.Builder
	rep.RenderSeries(&devnull)
	_ = io.Discard
}
