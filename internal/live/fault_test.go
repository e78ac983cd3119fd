package live

// Fault-axis tests of the live plane: scheduled crashes, graph reform
// at the survivors, restart-and-rejoin, and the RunCluster contracts
// around worker identity and error attribution.

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"hop/internal/core"
	"hop/internal/graph"
	"hop/internal/leaktest"
)

// faultClusterConfigs builds one in-order WorkerConfig per node of g.
func faultClusterConfigs(g *graph.Graph, mut func(i int, cfg *WorkerConfig)) []WorkerConfig {
	cfgs := make([]WorkerConfig, g.N())
	for i := range cfgs {
		cfgs[i] = WorkerConfig{
			Config: core.Config{
				Graph:   g,
				MaxIter: 20, Seed: 1,
			},
			ID: i, Trainer: quadStart(i),
			Logger: NopLogger(),
		}
		if mut != nil {
			mut(i, &cfgs[i])
		}
	}
	return cfgs
}

// crashSchedule is an n-worker fault schedule holding worker w's fault.
func crashSchedule(n, w int, f core.FaultSchedule) []core.FaultSchedule {
	faults := make([]core.FaultSchedule, n)
	faults[w] = f
	return faults
}

// TestRunClusterRejectsMisnumberedConfigs: a config whose ID does not
// match its index must be rejected, never silently renumbered — a
// config built for worker i carries worker i's fault schedule, trainer
// shard and trace. The old behavior "filled in" any zero ID, so a
// worker-0 config at a nonzero index was silently reassigned.
func TestRunClusterRejectsMisnumberedConfigs(t *testing.T) {
	g := graph.Ring(3)
	cfgs := faultClusterConfigs(g, nil)
	cfgs[1].ID = 0 // explicit worker-0 config at index 1
	_, err := RunCluster(cfgs, time.Second)
	if err == nil {
		t.Fatal("misnumbered configs accepted")
	}
	if !strings.Contains(err.Error(), "index 1") || !strings.Contains(err.Error(), "worker id 0") {
		t.Errorf("error %q does not name the offending index and id", err)
	}

	cfgs = faultClusterConfigs(g, nil)
	cfgs[1].ID, cfgs[2].ID = 2, 1 // swapped
	if _, err := RunCluster(cfgs, time.Second); err == nil {
		t.Fatal("out-of-order configs accepted")
	}
}

// TestRunClusterCrashSurfacesOriginatingError: without fault tolerance
// a scheduled crash is a real failure; the error RunCluster reports
// must be the originating ErrCrashed, never the ErrAborted cascade the
// teardown propagates through the other workers.
func TestRunClusterCrashSurfacesOriginatingError(t *testing.T) {
	g := graph.Ring(4)
	cfgs := faultClusterConfigs(g, func(i int, cfg *WorkerConfig) {
		if i == 2 {
			cfg.Faults = crashSchedule(g.N(), i, core.FaultSchedule{CrashIter: 5})
		}
	})
	_, err := RunCluster(cfgs, time.Second)
	if err == nil {
		t.Fatal("crash without fault tolerance reported success")
	}
	if !errors.Is(err, core.ErrCrashed) {
		t.Errorf("error %q does not wrap the originating ErrCrashed", err)
	}
	if errors.Is(err, core.ErrAborted) {
		t.Errorf("error %q leaks the ErrAborted cascade", err)
	}
	if !strings.Contains(err.Error(), "worker 2") {
		t.Errorf("error %q does not name the crashed worker", err)
	}
}

// TestRunClusterCrashReform: with fault tolerance on, a scheduled
// crash is survivable — the cluster completes, the crashed worker's
// neighbors record its death, and the survivors converge. Nothing the
// cluster started — sockets' readers and writers, detectors, the
// crashed worker's goroutines — outlives RunCluster.
func TestRunClusterCrashReform(t *testing.T) {
	defer leaktest.Check(t, 0)()
	g := graph.Ring(4)
	cfgs := faultClusterConfigs(g, func(i int, cfg *WorkerConfig) {
		cfg.FaultTolerance = true
		cfg.MaxIter = 30
		cfg.Trace = core.NewTrace()
		if i == 3 {
			cfg.Faults = crashSchedule(g.N(), i, core.FaultSchedule{CrashIter: 10})
		}
	})
	res, err := RunCluster(cfgs, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfgs[3].Trace.MembershipString(); got != "X@10" {
		t.Errorf("crashed worker membership %q, want X@10", got)
	}
	for _, i := range []int{0, 2} { // ring neighbors of 3
		if got := cfgs[i].Trace.MembershipString(); got != "D3@10" {
			t.Errorf("worker %d membership %q, want D3@10", i, got)
		}
		if loss := res.Workers[i].Trainer().EvalLoss(); loss > 0.3 {
			t.Errorf("survivor %d loss %g", i, loss)
		}
	}
	if got := cfgs[1].Trace.MembershipString(); got != "" {
		t.Errorf("non-neighbor membership %q, want empty", got)
	}
}

// TestRunClusterCrashRestartRejoins: a crashed worker with a restart
// schedule comes back on its original address, rejoins the iteration
// graph (B event at itself, R events at the survivors that dropped
// it), trains the tail of the run and converges with everyone else.
func TestRunClusterCrashRestartRejoins(t *testing.T) {
	g := graph.Ring(4)
	cfgs := faultClusterConfigs(g, func(i int, cfg *WorkerConfig) {
		cfg.FaultTolerance = true
		cfg.MaxIter = 60
		cfg.Trace = core.NewTrace()
		// Stretch iterations to real time so the restart lands mid-run.
		cfg.ComputeDelay = func(int) time.Duration { return 5 * time.Millisecond }
		if i == 3 {
			cfg.Faults = crashSchedule(g.N(), i, core.FaultSchedule{CrashIter: 10, RestartAfter: 50 * time.Millisecond})
		}
	})
	res, err := RunCluster(cfgs, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	members := cfgs[3].Trace.Memberships()
	if len(members) != 2 || members[0].Kind != core.TraceCrash || members[1].Kind != core.TraceRejoin {
		t.Fatalf("crashed worker membership %q, want crash then rejoin", cfgs[3].Trace.MembershipString())
	}
	if k0 := members[1].Iter; k0 <= 10 || k0 >= 60 {
		t.Errorf("rejoin iteration %d outside (10, 60)", k0)
	}
	for _, i := range []int{0, 2} {
		ms := cfgs[i].Trace.Memberships()
		if len(ms) != 2 || ms[0].Kind != core.TraceDeath || ms[1].Kind != core.TraceJoin ||
			ms[0].From != 3 || ms[1].From != 3 {
			t.Errorf("survivor %d membership %q, want D3 then R3", i, cfgs[i].Trace.MembershipString())
		}
	}
	for i, w := range res.Workers {
		if loss := w.Trainer().EvalLoss(); loss > 0.3 {
			t.Errorf("worker %d loss %g after rejoin", i, loss)
		}
	}
}

// TestWorkerAbortCloseRunRace drives Run, Abort and Close concurrently
// on every worker of a small cluster (under -race in CI): whatever the
// interleaving, each Run must return — cleanly, aborted, or with a
// transport failure — without panicking or deadlocking.
func TestWorkerAbortCloseRunRace(t *testing.T) {
	g := graph.Ring(3)
	for round := 0; round < 8; round++ {
		n := g.N()
		workers := make([]*Worker, n)
		addrs := make(map[int]string, n)
		for i := 0; i < n; i++ {
			cfg := WorkerConfig{
				Config: core.Config{
					Graph:   g,
					MaxIter: 200, Seed: 1,
					// Fault tolerance keeps post-Close send failures from
					// panicking the loop; they declare the peer dead instead.
					FaultTolerance: true,
				},
				ID: i, Trainer: quadStart(i),
				ListenAddr: "127.0.0.1:0", Logger: NopLogger(),
			}
			w, err := NewWorker(cfg)
			if err != nil {
				t.Fatalf("worker %d: %v", i, err)
			}
			workers[i] = w
			addrs[i] = w.Addr()
		}
		for i, w := range workers {
			if err := w.Connect(addrs, 5*time.Second); err != nil {
				t.Fatalf("connect %d: %v", i, err)
			}
		}
		var wg sync.WaitGroup
		for _, w := range workers {
			wg.Add(1)
			go func(w *Worker) {
				defer wg.Done()
				w.Run() // outcome depends on the race; returning is the assertion
			}(w)
			wg.Add(1)
			go func(w *Worker) {
				defer wg.Done()
				time.Sleep(time.Duration(round) * time.Millisecond)
				w.Abort()
			}(w)
			wg.Add(1)
			go func(w *Worker) {
				defer wg.Done()
				time.Sleep(time.Duration(round) * 750 * time.Microsecond)
				w.Close()
			}(w)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("abort/close/run race deadlocked")
		}
	}
}
