// Package metrics records what the paper's figures plot: evaluation
// loss against wall-clock time (Figs. 12-14, 17, 19-20), loss against
// steps (Fig. 15), and per-iteration durations (Figs. 16, 18).
package metrics

import (
	"fmt"
	"io"
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

// Recorder collects everything one simulated training run produces.
// It takes no lock: the simulator records from one process at a time,
// and its caller reads it after the run.
type Recorder struct {
	// Eval is the held-out loss of the probe worker over time.
	Eval Series
	// Train is the probe worker's mini-batch training loss.
	Train Series

	workers []workerIters
}

// maxWarmup is the largest warm-up MeanIterDurationAll can skip: the
// recorder keeps each worker's first maxWarmup completion times and no
// others.
const maxWarmup = 4

// workerIters is what the recorder keeps of one worker's completions:
// their count, the last time, and the first maxWarmup times. The
// durations MeanIterDurationAll averages are differences of successive
// completion times, so their sum telescopes to last − first.
type workerIters struct {
	count int
	last  time.Duration
	first [maxWarmup]time.Duration
}

// NewRecorder creates a recorder for n workers.
func NewRecorder(n int) *Recorder {
	return &Recorder{workers: make([]workerIters, n)}
}

// RecordIteration notes that worker w completed iteration iter at now.
// The worker's iteration duration is now minus its previous completion
// time (minus zero for its first).
func (r *Recorder) RecordIteration(w, iter int, now time.Duration) {
	s := &r.workers[w]
	if s.count < maxWarmup {
		s.first[s.count] = now
	}
	s.count++
	s.last = now
}

// RecordTrain appends a training-loss sample for the probe worker.
func (r *Recorder) RecordTrain(now time.Duration, step int, loss float64) {
	r.Train.Add(now, step, loss)
}

// RecordEval appends an evaluation-loss sample.
func (r *Recorder) RecordEval(now time.Duration, step int, loss float64) {
	r.Eval.Add(now, step, loss)
}

// Iterations returns the total iterations completed across workers.
func (r *Recorder) Iterations() int {
	total := 0
	for _, s := range r.workers {
		total += s.count
	}
	return total
}

// WorkerIterations returns the iterations completed by worker w.
func (r *Recorder) WorkerIterations(w int) int {
	return r.workers[w].count
}

// MinWorkerIterations returns the slowest worker's completed count.
func (r *Recorder) MinWorkerIterations() int {
	min := -1
	for _, s := range r.workers {
		if min == -1 || s.count < min {
			min = s.count
		}
	}
	if min == -1 {
		return 0
	}
	return min
}

// MeanIterDurationAll averages per-iteration durations over all
// workers, skipping each worker's first skipWarmup durations (0 ≤
// skipWarmup ≤ maxWarmup; callers skip 0–2). A worker's durations from
// the k-th on sum to its last completion time minus its (k−1)-th (minus
// zero for k = 0), so the mean is exact in integer nanoseconds.
func (r *Recorder) MeanIterDurationAll(skipWarmup int) time.Duration {
	if skipWarmup < 0 || skipWarmup > maxWarmup {
		panic(fmt.Sprintf("metrics: warm-up %d outside [0, %d]", skipWarmup, maxWarmup))
	}
	var sum time.Duration
	n := 0
	for _, s := range r.workers {
		if s.count <= skipWarmup {
			continue
		}
		sum += s.last
		if skipWarmup > 0 {
			sum -= s.first[skipWarmup-1]
		}
		n += s.count - skipWarmup
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
