package live

// Prague parity regressions on real loopback TCP (under -race in CI):
// the partial all-reduce grid crosses group size, wire compression and
// a real straggler, and the fault case pins that a crashed group
// member is dropped from its groups instead of wedging them — the
// live mirror of the sim-plane tests in internal/scenario.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"hop/internal/compress"
	"hop/internal/core"
	"hop/internal/graph"
	"hop/internal/model"
)

// pragueStart builds a 64-dim replica so the sparse codec's realized
// wire ratio is not swamped by frame overhead (same shape as the
// stale-weighting matrix).
func pragueStart(i int) model.Trainer {
	const dim = 64
	x0 := make([]float64, dim)
	target := make([]float64, dim)
	for d := range x0 {
		x0[d] = float64(i%3) + 0.5
		target[d] = float64(d%5) / 5
	}
	return model.NewQuadratic(x0, target, 0.2, 0.02)
}

// TestLivePragueMatrix crosses the axes that interact in a Prague
// reduce: group size (2 = pairwise gossip-like, 4 = whole-cluster
// all-reduce), the negotiated wire codec, and a real straggler
// tolerated by a 2-of-4 quorum. Every cell must converge and drop no
// connections; the full-quorum fault-free cells must additionally
// exclude nobody — every scheduled member reaches every reduce.
func TestLivePragueMatrix(t *testing.T) {
	for _, gs := range []int{2, 4} {
		for _, cs := range []string{"none", "topk:0.5"} {
			for _, straggler := range []bool{false, true} {
				gs, cs, straggler := gs, cs, straggler
				if straggler && gs == 2 {
					// A pair blocks on its one partner regardless of
					// quorum; only the 4-group has a quorum to exercise.
					continue
				}
				t.Run(fmt.Sprintf("gs=%d-%s-straggler=%v", gs, cs, straggler), func(t *testing.T) {
					t.Parallel()
					comp, err := compress.ParseSpec(cs)
					if err != nil {
						t.Fatal(err)
					}
					quorum := 0
					if straggler {
						quorum = 2
					}
					g := graph.Ring(4)
					workers := launch(t, g, func(i int) WorkerConfig {
						cfg := WorkerConfig{
							Config: core.Config{
								Mode:        core.ModePrague,
								Prague:      &core.PragueConfig{GroupSize: gs, Quorum: quorum, Seed: 513},
								Compression: comp,
								MaxIter:     30,
								Seed:        int64(41 + i),
							},
							Trainer: pragueStart(i),
							Logger:  NopLogger(),
						}
						if straggler && i == 0 {
							cfg.ComputeDelay = func(int) time.Duration { return 4 * time.Millisecond }
						}
						return cfg
					})
					for i, w := range workers {
						if loss := w.Trainer().EvalLoss(); loss > 0.5 {
							t.Errorf("worker %d loss %g", i, loss)
						}
						st := w.WireStats()
						if st.ReadErrors != 0 {
							t.Errorf("worker %d: %d inbound connections dropped", i, st.ReadErrors)
						}
						if comp.Kind == compress.TopK && st.CompressionRatio() < 1.5 {
							t.Errorf("worker %d: topk:0.5 realized only %.2fx on the wire", i, st.CompressionRatio())
						}
						if !straggler {
							if ex := w.Stats().GroupExcluded; ex != 0 {
								t.Errorf("worker %d excluded %d members under full quorum with no faults", i, ex)
							}
						}
					}
				})
			}
		}
	}
}

// TestLivePragueCrashDropsMember: a group member crashing mid-run must
// be dropped from its groups — the static schedule keeps assigning it,
// and each survivor's first blocked reduce on the dead member applies
// the death and proceeds without it (P exclusions), instead of
// wedging. Survivors finish and converge.
func TestLivePragueCrashDropsMember(t *testing.T) {
	g := graph.Ring(4)
	cfgs := faultClusterConfigs(g, func(i int, cfg *WorkerConfig) {
		cfg.Mode = core.ModePrague
		cfg.Prague = &core.PragueConfig{GroupSize: 2, Seed: 513}
		cfg.FaultTolerance = true
		cfg.MaxIter = 30
		cfg.Trace = core.NewTrace()
		if i == 3 {
			cfg.Faults = crashSchedule(g.N(), i, core.FaultSchedule{CrashIter: 8})
		}
	})
	res, err := RunCluster(cfgs, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfgs[3].Trace.MembershipString(); got != "X@8" {
		t.Errorf("crashed worker membership %q, want X@8", got)
	}
	var survivorTraces []string
	lost := 0
	for i := 0; i < 3; i++ {
		survivorTraces = append(survivorTraces, cfgs[i].Trace.String())
		lost += res.Workers[i].Stats().PeersLost
		if loss := res.Workers[i].Trainer().EvalLoss(); loss > 0.3 {
			t.Errorf("survivor %d loss %g", i, loss)
		}
	}
	joined := strings.Join(survivorTraces, " | ")
	if lost == 0 || !strings.Contains(joined, "D3@") {
		t.Errorf("no survivor applied worker 3's death (lost=%d): %s", lost, joined)
	}
	if !strings.Contains(joined, "P3@") {
		t.Errorf("no survivor excluded worker 3 from a group reduce: %s", joined)
	}
}
