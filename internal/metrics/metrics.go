// Package metrics records what the paper's figures plot: evaluation
// loss against wall-clock time (Figs. 12-14, 17, 19-20), loss against
// steps (Fig. 15), and per-iteration durations (Figs. 16, 18).
package metrics

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Point is one sample of a series.
type Point struct {
	Time  time.Duration
	Step  int
	Value float64
}

// Series is an ordered sequence of samples.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(t time.Duration, step int, v float64) {
	s.Points = append(s.Points, Point{Time: t, Step: step, Value: v})
}

// Last returns the final sample value, or def when empty.
func (s *Series) Last(def float64) float64 {
	if len(s.Points) == 0 {
		return def
	}
	return s.Points[len(s.Points)-1].Value
}

// TimeToValue returns the first time the series reaches v or below,
// and whether it ever does.
func (s *Series) TimeToValue(v float64) (time.Duration, bool) {
	for _, p := range s.Points {
		if p.Value <= v {
			return p.Time, true
		}
	}
	return 0, false
}

// StepToValue returns the first step the series reaches v or below,
// and whether it ever does.
func (s *Series) StepToValue(v float64) (int, bool) {
	for _, p := range s.Points {
		if p.Value <= v {
			return p.Step, true
		}
	}
	return 0, false
}

// MinValue returns the smallest value seen, or def when empty.
func (s *Series) MinValue(def float64) float64 {
	if len(s.Points) == 0 {
		return def
	}
	min := s.Points[0].Value
	for _, p := range s.Points[1:] {
		if p.Value < min {
			min = p.Value
		}
	}
	return min
}

// Render writes the series as aligned "time step value" rows.
func (s *Series) Render(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", s.Name)
	for _, p := range s.Points {
		fmt.Fprintf(w, "%10.2fs %8d %12.6f\n", p.Time.Seconds(), p.Step, p.Value)
	}
}

// Recorder collects everything one training run produces. It is safe
// for concurrent use (the live runtime records from worker
// goroutines).
type Recorder struct {
	mu sync.Mutex

	// Eval is the held-out loss of the probe worker over time.
	Eval Series
	// Train is the probe worker's mini-batch training loss.
	Train Series

	iterCount []int
	lastIter  []time.Duration
	durations [][]time.Duration
}

// NewRecorder creates a recorder for n workers.
func NewRecorder(n int) *Recorder {
	return &Recorder{
		iterCount: make([]int, n),
		lastIter:  make([]time.Duration, n),
		durations: make([][]time.Duration, n),
	}
}

// RecordIteration notes that worker w completed iteration iter at now.
func (r *Recorder) RecordIteration(w, iter int, now time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.iterCount[w]++
	r.durations[w] = append(r.durations[w], now-r.lastIter[w])
	r.lastIter[w] = now
}

// RecordTrain appends a training-loss sample for the probe worker.
func (r *Recorder) RecordTrain(now time.Duration, step int, loss float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Train.Add(now, step, loss)
}

// RecordEval appends an evaluation-loss sample.
func (r *Recorder) RecordEval(now time.Duration, step int, loss float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Eval.Add(now, step, loss)
}

// Iterations returns the total iterations completed across workers.
func (r *Recorder) Iterations() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := 0
	for _, c := range r.iterCount {
		total += c
	}
	return total
}

// WorkerIterations returns the iterations completed by worker w.
func (r *Recorder) WorkerIterations(w int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.iterCount[w]
}

// MinWorkerIterations returns the slowest worker's completed count.
func (r *Recorder) MinWorkerIterations() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	min := -1
	for _, c := range r.iterCount {
		if min == -1 || c < min {
			min = c
		}
	}
	if min == -1 {
		return 0
	}
	return min
}

// MeanIterDurationAll averages per-iteration durations over all
// workers.
func (r *Recorder) MeanIterDurationAll(skipWarmup int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var sum time.Duration
	n := 0
	for _, d := range r.durations {
		if len(d) <= skipWarmup {
			continue
		}
		for _, x := range d[skipWarmup:] {
			sum += x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// Throughput returns cluster-wide iterations per second up to now.
func (r *Recorder) Throughput(now time.Duration) float64 {
	if now <= 0 {
		return 0
	}
	return float64(r.Iterations()) / now.Seconds()
}
