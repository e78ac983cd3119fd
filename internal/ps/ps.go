// Package ps implements the centralized baseline the paper compares
// against (§2.1, §7.3.2, Fig. 13): a bulk-synchronous (BSP) parameter
// server. Each round the server waits for every worker's gradient,
// applies their mean, then broadcasts fresh parameters.
//
// The server occupies its own machine; all worker↔server traffic
// crosses the inter-machine network and serializes on the server
// machine's NIC, reproducing the communication hotspot that motivates
// decentralized training (§1, §2.4).
package ps

import (
	"fmt"
	"math/rand"
	"time"

	"hop/internal/hetero"
	"hop/internal/metrics"
	"hop/internal/model"
	"hop/internal/netsim"
	"hop/internal/sim"
	"hop/internal/tensor"
)

// Options configure a parameter-server run.
type Options struct {
	Workers int

	// Trainer is the model prototype; the server holds the master
	// replica (and its optimizer state), workers hold compute
	// replicas.
	Trainer model.Trainer

	Compute      hetero.Compute
	Net          netsim.Config
	PayloadBytes int

	// Placement maps workers to machines; the server always gets a
	// dedicated machine appended after the worker machines.
	Placement []int

	MaxIter  int
	Deadline time.Duration

	EvalEvery int
	Seed      int64
}

// Result carries the run's recordings.
type Result struct {
	Metrics  *metrics.Recorder
	Duration time.Duration
	Server   model.Trainer
}

// Run executes the parameter-server baseline in virtual time.
func Run(opts Options) (*Result, error) {
	if opts.Workers < 1 {
		return nil, fmt.Errorf("ps: need at least one worker")
	}
	if opts.Trainer == nil {
		return nil, fmt.Errorf("ps: no trainer")
	}
	if opts.MaxIter == 0 && opts.Deadline == 0 {
		return nil, fmt.Errorf("ps: need MaxIter or Deadline")
	}
	if opts.Net.IsZero() {
		opts.Net = netsim.Default1GbE()
	}
	if opts.PayloadBytes <= 0 {
		opts.PayloadBytes = 1 << 20
	}
	if opts.EvalEvery <= 0 {
		opts.EvalEvery = 10
	}
	if opts.Compute.Base <= 0 {
		opts.Compute.Base = 100 * time.Millisecond
	}

	n := opts.Workers
	placement := opts.Placement
	if placement == nil {
		placement = make([]int, n)
	}
	serverMachine := 0
	for _, m := range placement {
		if m+1 > serverMachine {
			serverMachine = m + 1
		}
	}
	// Node ids: workers 0..n-1, server = n, on its own machine.
	fullPlacement := append(append([]int(nil), placement...), serverMachine)

	k := sim.NewKernel()
	fabric := netsim.New(k, opts.Net, n+1, fullPlacement)
	rec := metrics.NewRecorder(n)

	server := opts.Trainer.Clone()
	workers := make([]model.Trainer, n)
	for i := range workers {
		workers[i] = opts.Trainer.Clone()
	}

	// Server state.
	var (
		gradQ     [][]float64 // this round's gradients, in arrival order
		gradCond  = sim.NewCond(k)
		paramVer  = make([]int, n) // rounds each worker has received
		paramCond = make([]*sim.Cond, n)
	)
	for i := range paramCond {
		paramCond[i] = sim.NewCond(k)
	}
	pending := make([][]float64, n) // params awaiting pickup per worker

	sendParams := func(w int) {
		snapshot := tensor.Clone(server.Params())
		fabric.Deliver(n, w, opts.PayloadBytes, func() {
			pending[w] = snapshot
			paramVer[w]++
			paramCond[w].Broadcast()
		})
	}

	// Server process. One mean vector serves every round instead of
	// being reallocated per reduction.
	mean := make([]float64, len(server.Params()))
	k.Spawn("server", func(*sim.Proc) {
		for round := 0; opts.MaxIter == 0 || round < opts.MaxIter; round++ {
			for len(gradQ) < n {
				gradCond.Wait()
			}
			tensor.Mean(mean, gradQ)
			server.Apply(mean)
			gradQ = gradQ[:0]
			for w := 0; w < n; w++ {
				sendParams(w)
			}
		}
	})

	// Worker processes.
	rngs := make([]*rand.Rand, n)
	for w := 0; w < n; w++ {
		rngs[w] = rand.New(rand.NewSource(opts.Seed + int64(w)*13007 + 3))
	}
	slowRngs := make([]*rand.Rand, n)
	for w := 0; w < n; w++ {
		slowRngs[w] = rand.New(rand.NewSource(opts.Seed + int64(w)*104729 + 17))
	}

	for w := 0; w < n; w++ {
		w := w
		k.Spawn(fmt.Sprintf("ps-worker-%d", w), func(p *sim.Proc) {
			t := workers[w]
			seen := 0
			for iter := 0; opts.MaxIter == 0 || iter < opts.MaxIter; iter++ {
				grads, loss := t.ComputeGrad(rngs[w])
				p.Sleep(opts.Compute.IterTime(w, iter, slowRngs[w]))
				snapshot := tensor.Clone(grads)
				fabric.Deliver(w, n, opts.PayloadBytes, func() {
					gradQ = append(gradQ, snapshot)
					gradCond.Broadcast()
				})
				// Wait for the server's reply for this round.
				for paramVer[w] <= seen {
					paramCond[w].Wait()
				}
				seen = paramVer[w]
				tensor.Copy(t.Params(), pending[w])

				rec.RecordIteration(w, iter, p.Now())
				if w == 0 {
					rec.RecordTrain(p.Now(), iter, loss)
					if iter%opts.EvalEvery == 0 {
						rec.RecordEval(p.Now(), iter, t.EvalLoss())
					}
				}
			}
		})
	}

	if err := k.RunUntil(opts.Deadline); err != nil {
		if _, ok := err.(*sim.DeadlockError); !ok {
			return nil, err
		}
		// Deadline-killed BSP rounds can strand the server; that is
		// expected at shutdown, not a protocol deadlock.
	}
	return &Result{Metrics: rec, Duration: k.Now(), Server: server}, nil
}
