package live

// Loopback (and generally single-process) cluster orchestration: spawn
// one Worker per graph node, mesh the neighbor connections, run every
// worker to MaxIter, and collect results. This is the live plane's
// counterpart of cluster.Run — the unit the scenario engine's live
// execution and the differential sim↔live tests are built from.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"hop/internal/core"
	"hop/internal/counters"
	"hop/internal/transport"
)

// DefaultDialTimeout is how long cluster workers retry dialing their
// neighbors before giving up.
const DefaultDialTimeout = 10 * time.Second

// DefaultLinger bounds how long a finished worker waits for its peers
// to end (Worker.Finish) before it closes anyway: RunCluster's bound,
// and hopnode's -linger default.
const DefaultLinger = 10 * time.Second

// ClusterResult is everything a live cluster run produced.
type ClusterResult struct {
	// Workers holds the participants (closed by RunCluster; their
	// trainers, stats and traces remain readable).
	Workers []*Worker
	// Losses is each worker's final training loss.
	Losses []float64
	// Duration is the wall-clock time from the first Run call to the
	// last Run return.
	Duration time.Duration
}

// WireStats sums the per-worker transport counters.
func (r *ClusterResult) WireStats() transport.Stats {
	var total transport.Stats
	for _, w := range r.Workers {
		counters.Add(&total, w.WireStats())
	}
	return total
}

// RunCluster executes one complete live cluster in-process: it binds
// every configured worker (ListenAddr defaults to "127.0.0.1:0"),
// meshes the neighbor connections and runs all workers concurrently to
// MaxIter, each leaving the way one hopnode process does: Run, Finish,
// Close. cfgs must hold one WorkerConfig per graph node, in worker-id
// order with cfg.ID == index — RunCluster never renumbers a config,
// because a config built for worker i carries worker i's fault
// schedule, trainer shard and trace, and silently reassigning it would
// corrupt the run. dialTimeout <= 0 means DefaultDialTimeout.
//
// A worker whose Run fails closes at once. With FaultTolerance on, a
// worker whose Run ends in core.ErrCrashed is treated as a scheduled
// fault rather than a failure: the goodbye of its Close tells its
// neighbors to reform the graph and, if its Faults[ID].RestartAfter is
// positive, a fresh Worker is rebuilt on the same listen address after
// that delay and rejoins the cluster.
func RunCluster(cfgs []WorkerConfig, dialTimeout time.Duration) (*ClusterResult, error) {
	n := len(cfgs)
	if n == 0 {
		return nil, fmt.Errorf("live: cluster has no workers")
	}
	if g := cfgs[0].Graph; g == nil || g.N() != n {
		return nil, fmt.Errorf("live: cluster needs one config per graph node")
	}
	if dialTimeout <= 0 {
		dialTimeout = DefaultDialTimeout
	}

	workers := make([]*Worker, n)
	addrs := make(map[int]string, n)
	// wmu guards workers: restart goroutines swap a crashed worker's
	// slot for its rejoined replacement while abortRest walks the slice.
	var wmu sync.Mutex
	closeAll := func() {
		wmu.Lock()
		defer wmu.Unlock()
		for _, w := range workers {
			if w != nil {
				w.Close()
			}
		}
	}
	for i := range cfgs {
		cfg := cfgs[i]
		if cfg.ID != i {
			closeAll()
			return nil, fmt.Errorf("live: config at index %d has worker id %d (configs must be in worker-id order)", i, cfg.ID)
		}
		if cfg.ListenAddr == "" {
			cfg.ListenAddr = "127.0.0.1:0"
		}
		w, err := NewWorker(cfg)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("live: worker %d: %w", i, err)
		}
		workers[i] = w
		addrs[i] = w.Addr()
	}
	for i, w := range workers {
		if err := w.Connect(addrs, dialTimeout); err != nil {
			closeAll()
			return nil, fmt.Errorf("live: connect worker %d: %w", i, err)
		}
	}

	start := time.Now()
	var end time.Time // the last Run return, guarded by wmu
	losses := make([]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	// A failed worker stops sending, leaving its neighbors blocked in
	// Recv with nothing to wake them; the first failure aborts every
	// other worker so the join below always completes.
	var abortOnce sync.Once
	abortRest := func() {
		wmu.Lock()
		defer wmu.Unlock()
		for _, w := range workers {
			w.Abort()
		}
	}
	var runWorker func(i int, w *Worker)
	runWorker = func(i int, w *Worker) {
		defer wg.Done()
		loss, err := w.Run()
		wmu.Lock()
		end = time.Now()
		wmu.Unlock()
		losses[i] = loss
		if err == nil {
			// What one hopnode process does: leave once every peer has.
			w.Finish(DefaultLinger)
			w.Close()
			return
		}
		// A failed, aborted or crashed worker closes at once, so no peer
		// waits on it; its goodbye tells fault-tolerant neighbors to
		// reform the graph around it.
		w.Close()
		if errors.Is(err, core.ErrCrashed) && cfgs[i].FaultTolerance {
			// Scheduled fault: optionally restart on the original address
			// so survivors can redial it when it announces itself.
			restart := cfgs[i].Faults[i].RestartAfter
			if restart <= 0 {
				return
			}
			time.Sleep(restart)
			cfg := cfgs[i]
			cfg.ListenAddr = w.Addr()
			cfg.Config = cfg.Restarted()
			nw, nerr := NewWorker(cfg)
			if nerr != nil {
				errs[i] = fmt.Errorf("live: restart worker %d: %w", i, nerr)
				abortOnce.Do(abortRest)
				return
			}
			wmu.Lock()
			workers[i] = nw
			wmu.Unlock()
			if cerr := nw.Connect(addrs, dialTimeout); cerr != nil {
				nw.Close()
				errs[i] = fmt.Errorf("live: reconnect worker %d: %w", i, cerr)
				abortOnce.Do(abortRest)
				return
			}
			wg.Add(1)
			go runWorker(i, nw)
			return
		}
		errs[i] = fmt.Errorf("live: worker %d: %w", i, err)
		abortOnce.Do(abortRest)
	}
	for i, w := range workers {
		wg.Add(1)
		go runWorker(i, w)
	}
	wg.Wait()
	// Report the originating failures; cascade-abort errors are only
	// interesting when nothing else explains the teardown.
	var real []error
	for _, err := range errs {
		if err != nil && !errors.Is(err, core.ErrAborted) {
			real = append(real, err)
		}
	}
	if len(real) > 0 {
		return nil, errors.Join(real...)
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return &ClusterResult{Workers: workers, Losses: losses, Duration: end.Sub(start)}, nil
}
