package live_test

// The shutdown path of cmd/hopnode, in-process: every worker runs
// Run → Finish → Close on its own goroutine, and nothing joins the
// cluster before a worker closes. Each worker is resolved from a spec
// with ResolveLiveWorker, exactly as one hopnode process resolves its
// own, across the modes and knobs whose last messages differ.

import (
	"errors"
	"os"
	"sync"
	"testing"
	"time"

	"hop/internal/core"
	"hop/internal/leaktest"
	"hop/internal/live"
	"hop/internal/scenario"
)

func TestFinishLeavesEveryModeCleanly(t *testing.T) {
	ring := scenario.Topology{Kind: "ring", Workers: 4, Machines: 1}
	directed := scenario.Topology{Kind: "directed-ring", Workers: 4, Machines: 1}
	// Worker 0 is 4× slow, so its peers finish first and must keep
	// hearing it: a finished worker that closed at once would fail the
	// straggler's last sends.
	straggler := scenario.Hetero{Kind: "det", Factor: 4, Workers: []int{0}}
	crash, err := os.ReadFile("../../examples/scenarios/ring4-crash.json")
	if err != nil {
		t.Fatal(err)
	}
	crashSpec, err := scenario.Parse(crash)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		spec scenario.Spec
	}{
		{"ring", scenario.Spec{Topology: ring}},
		{"directed-ring-send-check", scenario.Spec{Topology: directed,
			Protocol: scenario.Protocol{MaxIG: 3, Backup: 1, SendCheck: true}}},
		{"directed-ring-skip-straggler", scenario.Spec{Topology: directed,
			Protocol: scenario.Protocol{MaxIG: 4, Backup: 1, SendCheck: true, SkipMaxJump: 10}}},
		{"notify-ack", scenario.Spec{Topology: ring, Protocol: scenario.Protocol{Mode: "notify-ack"}}},
		{"prague", scenario.Spec{Topology: ring, Protocol: scenario.Protocol{Mode: "prague", GroupSize: 2}}},
		{"ps", scenario.Spec{Topology: scenario.Topology{Kind: "star", Workers: 5, Machines: 1},
			Protocol: scenario.Protocol{Mode: "ps"}}},
		{"ring4-crash", crashSpec},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := c.spec
			if spec.Workload == "" {
				spec.Workload, spec.MaxIter, spec.Seed, spec.Hetero = "quadratic", 40, 3, straggler
			}
			runLikeHopnode(t, spec)
		})
	}
}

// runLikeHopnode runs spec as one loopback cluster of hopnode-shaped
// workers and checks that every worker left cleanly: Run returned nil
// (or ErrCrashed for a scheduled crash, which closes at once), Finish
// saw every peer end well inside its timeout, no inbound connection
// was dropped, and no goroutine outlived the cluster.
func runLikeHopnode(t *testing.T, spec scenario.Spec) {
	defer leaktest.Check(t, 0)()
	// The straggler's 3× surplus of the 100 ms base becomes 3 ms.
	opts := scenario.LiveOptions{TimeScale: 0.01, Logger: live.NopLogger()}
	n := spec.Topology.Workers
	workers := make([]*live.Worker, n)
	crashes := make([]bool, n)
	addrs := make(map[int]string, n)
	for i := range workers {
		cfg, err := spec.ResolveLiveWorker(i, opts)
		if err != nil {
			t.Fatal(err)
		}
		crashes[i] = cfg.Faults != nil && cfg.Faults[i].CrashIter > 0
		w, err := live.NewWorker(cfg)
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
		addrs[i] = w.Addr()
	}
	for i, w := range workers {
		if err := w.Connect(addrs, 5*time.Second); err != nil {
			t.Fatalf("connect %d: %v", i, err)
		}
	}
	type outcome struct {
		err      error
		finished bool
		linger   time.Duration
	}
	out := make([]outcome, n)
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(o *outcome, w *live.Worker) {
			defer wg.Done()
			defer w.Close()
			if _, o.err = w.Run(); o.err != nil {
				return
			}
			start := time.Now()
			o.finished = w.Finish(live.DefaultLinger)
			o.linger = time.Since(start)
		}(&out[i], w)
	}
	wg.Wait()
	for i, o := range out {
		if crashes[i] {
			if !errors.Is(o.err, core.ErrCrashed) {
				t.Errorf("worker %d: Run returned %v, want its scheduled crash", i, o.err)
			}
			continue
		}
		if o.err != nil {
			t.Errorf("worker %d: Run: %v", i, o.err)
			continue
		}
		if !o.finished || o.linger > live.DefaultLinger/5 {
			t.Errorf("worker %d: Finish returned %v after %v (timeout %v)", i, o.finished, o.linger, live.DefaultLinger)
		}
		if st := workers[i].WireStats(); st.ReadErrors != 0 {
			t.Errorf("worker %d: %d inbound connections dropped", i, st.ReadErrors)
		}
	}
}
