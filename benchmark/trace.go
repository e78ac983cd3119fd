package main

// Outside-in tracing: a timing decorator on the Trainer interface, the
// one seam every worker-iteration crosses on both planes. The program
// under test is not touched — spans inside it are a later change — so
// what the decorator cannot see (queues, sockets, the event engine) is
// the *self* time of the enclosing span: an iteration's duration minus
// its trainer calls is synchronisation not hidden behind compute on
// TCP, and the run's duration minus every trainer call is the engine
// on the simulator, where the kernel runs one worker at a time.

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"hop"
)

// Span names, indexed by the name column of a trace file.
var spanNames = []string{"run", "iter", "model.compute_grad", "model.apply", "model.eval_loss"}

const (
	spanRun = iota
	spanIter
	spanGrad
	spanApply
	spanEval
)

// maxTraceFileIters caps how many iterations a trace file spells out
// (four spans each); the summary always covers all of them.
const maxTraceFileIters = 50000

// iterRec is one worker-iteration seen from outside, in nanoseconds
// since the tracer's epoch. It opens at a ComputeGrad entry and closes
// at the worker's next ComputeGrad entry — or, for its last iteration,
// at the end of the last trainer call it made.
type iterRec struct {
	start, gradEnd       int64
	applyStart, applyEnd int64
	evalStart, evalEnd   int64 // zero when the iteration evaluated nothing
}

// Tracer collects the iterations of every decorated trainer of one run.
type Tracer struct {
	epoch   time.Time
	capHint int // expected iterations per worker

	mu       sync.Mutex
	trainers []*tracedTrainer
	injected []*int64 // per wrapped ComputeDelay: Σ of the delays it returned

	runStart, runEnd int64
	stopped          bool
}

// NewTracer returns a tracer expecting about itersPerWorker iterations
// from each trainer (a capacity hint, so recording does not reallocate
// inside the timed run).
func NewTracer(itersPerWorker int) *Tracer {
	return &Tracer{epoch: time.Now(), capHint: itersPerWorker}
}

func (tr *Tracer) now() int64 { return int64(time.Since(tr.epoch)) }

// Start marks the beginning of the run span.
func (tr *Tracer) Start() { tr.runStart = tr.now() }

// Stop marks the end of the run span. Trainer calls made afterwards
// (the harness's own final-loss checks) are not recorded.
func (tr *Tracer) Stop() {
	tr.runEnd = tr.now()
	tr.stopped = true
}

// Prototype decorates a trainer prototype. The prototype itself records
// nothing; each Clone of it is a decorated replica registered as the
// next worker id, which is how the simulated cluster builds its
// per-worker replicas (clone i becomes worker i).
func (tr *Tracer) Prototype(t hop.Trainer) hop.Trainer {
	return &tracedTrainer{Trainer: t, tr: tr, worker: -1}
}

// Worker decorates one worker's replica directly (the live plane hands
// out one resolved trainer per worker).
func (tr *Tracer) Worker(t hop.Trainer, worker int) hop.Trainer {
	return tr.register(t, worker)
}

func (tr *Tracer) register(t hop.Trainer, worker int) *tracedTrainer {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if worker < 0 {
		worker = len(tr.trainers)
	}
	tt := &tracedTrainer{Trainer: t, tr: tr, worker: worker, iters: make([]iterRec, 0, tr.capHint)}
	tr.trainers = append(tr.trainers, tt)
	return tt
}

// Delay decorates a live worker's ComputeDelay hook so the injected
// heterogeneity sleeps it asks for are summed. A nil hook stays nil.
func (tr *Tracer) Delay(delay func(iter int) time.Duration) func(iter int) time.Duration {
	if delay == nil {
		return nil
	}
	sum := new(int64)
	tr.mu.Lock()
	tr.injected = append(tr.injected, sum)
	tr.mu.Unlock()
	return func(iter int) time.Duration {
		d := delay(iter)
		*sum += int64(d)
		return d
	}
}

// tracedTrainer times the trainer calls of one replica. A replica is
// driven by one goroutine, so its records need no lock.
type tracedTrainer struct {
	hop.Trainer
	tr     *Tracer
	worker int
	iters  []iterRec
}

func (t *tracedTrainer) recording() bool { return t.worker >= 0 && !t.tr.stopped }

func (t *tracedTrainer) ComputeGrad(rng *rand.Rand) ([]float64, float64) {
	if !t.recording() {
		return t.Trainer.ComputeGrad(rng)
	}
	start := t.tr.now()
	g, loss := t.Trainer.ComputeGrad(rng)
	t.iters = append(t.iters, iterRec{start: start, gradEnd: t.tr.now()})
	return g, loss
}

func (t *tracedTrainer) Apply(grads []float64) {
	if !t.recording() || len(t.iters) == 0 {
		t.Trainer.Apply(grads)
		return
	}
	start := t.tr.now()
	t.Trainer.Apply(grads)
	it := &t.iters[len(t.iters)-1]
	it.applyStart, it.applyEnd = start, t.tr.now()
}

func (t *tracedTrainer) EvalLoss() float64 {
	if !t.recording() || len(t.iters) == 0 {
		return t.Trainer.EvalLoss()
	}
	start := t.tr.now()
	loss := t.Trainer.EvalLoss()
	it := &t.iters[len(t.iters)-1]
	it.evalStart, it.evalEnd = start, t.tr.now()
	return loss
}

// Clone returns a decorated clone, registered as the next worker.
func (t *tracedTrainer) Clone() hop.Trainer {
	return t.tr.register(t.Trainer.Clone(), -1)
}

// end returns where iteration i of the worker closes.
func (t *tracedTrainer) end(i int) int64 {
	if i+1 < len(t.iters) {
		return t.iters[i+1].start
	}
	it := t.iters[i]
	end := it.gradEnd
	if it.applyEnd > end {
		end = it.applyEnd
	}
	if it.evalEnd > end {
		end = it.evalEnd
	}
	return end
}

// TraceSummary is what the per-layer metrics read off a traced run.
type TraceSummary struct {
	Iters   int64 `json:"iters"`
	RunNs   int64 `json:"run_ns"`
	IterNs  int64 `json:"iter_ns"` // Σ iteration durations
	GradNs  int64 `json:"grad_ns"`
	ApplyNs int64 `json:"apply_ns"`
	EvalNs  int64 `json:"eval_ns"`
	// IterP50Us and IterTailUs are order statistics of the iteration
	// durations; the tail is the highest percentile with at least ten
	// samples beyond it (IterTailPct says which).
	IterP50Us   float64 `json:"iter_p50_us"`
	IterTailUs  float64 `json:"iter_tail_us"`
	IterTailPct float64 `json:"iter_tail_pct"`
	// InjectedNs is the slowest worker's total injected compute delay
	// (live plane only).
	InjectedNs int64 `json:"injected_ns"`
}

// SelfNs is the time inside iterations that no trainer call covers.
func (s TraceSummary) SelfNs() int64 { return s.IterNs - s.GradNs - s.ApplyNs - s.EvalNs }

// clockCost measures what one reading of the tracer's clock costs. A
// span's two readings put about one of them inside the span, which is
// most of what a 30 ns toy-model gradient appears to take.
func (tr *Tracer) clockCost() int64 {
	const reads = 4096
	t0 := tr.now()
	for i := 0; i < reads; i++ {
		tr.now()
	}
	return (tr.now() - t0) / (reads + 1)
}

// Summary folds every recorded iteration into a TraceSummary. Trainer
// spans are net of the clock reading they contain.
func (tr *Tracer) Summary() TraceSummary {
	s := TraceSummary{RunNs: tr.runEnd - tr.runStart}
	clock := tr.clockCost()
	net := func(start, end int64) int64 {
		if d := end - start - clock; d > 0 {
			return d
		}
		return 0
	}
	var durs []float64
	for _, t := range tr.trainers {
		for i, it := range t.iters {
			d := t.end(i) - it.start
			s.Iters++
			s.IterNs += d
			s.GradNs += net(it.start, it.gradEnd)
			s.ApplyNs += net(it.applyStart, it.applyEnd)
			s.EvalNs += net(it.evalStart, it.evalEnd)
			durs = append(durs, float64(d)/1e3)
		}
	}
	for _, ns := range tr.injected {
		if *ns > s.InjectedNs {
			s.InjectedNs = *ns
		}
	}
	if len(durs) > 0 {
		sort.Float64s(durs)
		s.IterP50Us = quantile(durs, 2)
		if v, pct, ok := tail(durs); ok {
			s.IterTailUs, s.IterTailPct = v, pct
		}
	}
	return s
}

// WriteFile writes the spans as JSON: one row per span with the columns
// id, parent, name (index into names), worker, iter (the worker's
// ordinal iteration), start_ns and end_ns relative to the run start.
// Iterations beyond maxTraceFileIters are counted but not spelled out.
func (tr *Tracer) WriteFile(path, workload string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	total := 0
	for _, t := range tr.trainers {
		total += len(t.iters)
	}
	fmt.Fprintf(w, "{\"workload\":%q,\"clock\":\"host ns since run start\",\"names\":[", workload)
	for i, n := range spanNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	fmt.Fprintf(w, "],\"columns\":[\"id\",\"parent\",\"name\",\"worker\",\"iter\",\"start_ns\",\"end_ns\"],")
	fmt.Fprintf(w, "\"total_iters\":%d,\"truncated\":%v,\"spans\":[\n", total, total > maxTraceFileIters)
	fmt.Fprintf(w, "[0,-1,%d,-1,-1,0,%d]", spanRun, tr.runEnd-tr.runStart)
	id, written := 0, 0
	span := func(parent, name, worker, iter int, start, end int64) int {
		id++
		fmt.Fprintf(w, ",\n[%d,%d,%d,%d,%d,%d,%d]", id, parent, name, worker, iter, start-tr.runStart, end-tr.runStart)
		return id
	}
	for _, t := range tr.trainers {
		for i, it := range t.iters {
			if written == maxTraceFileIters {
				break
			}
			written++
			p := span(0, spanIter, t.worker, i, it.start, t.end(i))
			span(p, spanGrad, t.worker, i, it.start, it.gradEnd)
			if it.applyEnd != 0 {
				span(p, spanApply, t.worker, i, it.applyStart, it.applyEnd)
			}
			if it.evalEnd != 0 {
				span(p, spanEval, t.worker, i, it.evalStart, it.evalEnd)
			}
		}
	}
	fmt.Fprintf(w, "\n]}\n")
	return w.Flush()
}
