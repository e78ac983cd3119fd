package metrics

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestSeriesBasics(t *testing.T) {
	var s Series
	s.Name = "test"
	s.Add(time.Second, 1, 5)
	s.Add(2*time.Second, 2, 3)
	s.Add(3*time.Second, 3, 4)
	if s.Last(0) != 4 {
		t.Errorf("Last = %g", s.Last(0))
	}
	if s.MinValue(0) != 3 {
		t.Errorf("MinValue = %g", s.MinValue(0))
	}
	if tt, ok := s.TimeToValue(3.5); !ok || tt != 2*time.Second {
		t.Errorf("TimeToValue = %v %v", tt, ok)
	}
	if st, ok := s.StepToValue(3.5); !ok || st != 2 {
		t.Errorf("StepToValue = %v %v", st, ok)
	}
	if _, ok := s.TimeToValue(1); ok {
		t.Error("TimeToValue should fail for unreached target")
	}
	var empty Series
	if empty.Last(9) != 9 || empty.MinValue(8) != 8 {
		t.Error("empty series defaults")
	}
	var sb strings.Builder
	s.Render(&sb)
	if !strings.Contains(sb.String(), "# test") {
		t.Error("Render header missing")
	}
	if got := strings.Count(sb.String(), "\n"); got != 4 {
		t.Errorf("Render lines = %d", got)
	}
}

func TestRecorderDurations(t *testing.T) {
	r := NewRecorder(2)
	r.RecordIteration(0, 0, 100*time.Millisecond)
	r.RecordIteration(0, 1, 250*time.Millisecond)
	r.RecordIteration(0, 2, 400*time.Millisecond)
	r.RecordIteration(1, 0, 500*time.Millisecond)
	if r.Iterations() != 4 {
		t.Errorf("Iterations = %d", r.Iterations())
	}
	if r.WorkerIterations(0) != 3 || r.WorkerIterations(1) != 1 {
		t.Error("per-worker counts")
	}
	if r.MinWorkerIterations() != 1 {
		t.Errorf("MinWorkerIterations = %d", r.MinWorkerIterations())
	}
	if got := r.MeanIterDurationAll(0); got == 0 {
		t.Error("MeanIterDurationAll zero")
	}
	if th := r.Throughput(2 * time.Second); th != 2 {
		t.Errorf("Throughput = %g", th)
	}
	if th := r.Throughput(0); th != 0 {
		t.Error("Throughput at t=0")
	}
}

func TestRecorderSeries(t *testing.T) {
	r := NewRecorder(1)
	r.RecordTrain(time.Second, 1, 0.9)
	r.RecordEval(time.Second, 1, 0.8)
	if r.Train.Last(0) != 0.9 || r.Eval.Last(0) != 0.8 {
		t.Error("series recording")
	}
}

func TestEmptyRecorder(t *testing.T) {
	r := NewRecorder(1)
	if r.MinWorkerIterations() != 0 && r.Iterations() != 0 {
		t.Error("empty counts")
	}
	empty := NewRecorder(0)
	if empty.MinWorkerIterations() != 0 {
		t.Error("zero workers")
	}
}

// TestMeanIterDurationTelescopes: on random completion times the
// recorder's telescoped mean equals the mean of the explicit
// per-iteration durations (each completion minus the worker's previous
// one, the first minus zero) at every supported warm-up. Worker 0
// crashes and restarts: a long gap, then its iteration numbers start
// over. Workers 1 and 2 complete fewer iterations than some warm-ups
// skip.
func TestMeanIterDurationTelescopes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 6
	r := NewRecorder(n)
	durations := make([][]time.Duration, n)
	counts := []int{40, 1, 3, 25, 60, 0}
	for w, count := range counts {
		var now time.Duration
		for i := 0; i < count; i++ {
			d := time.Duration(rng.Int63n(int64(300 * time.Millisecond)))
			iter := i
			if w == 0 && i >= 20 {
				iter = i - 20 // the restarted instance counts from zero
				if i == 20 {
					d += 7 * time.Second // down while crashed
				}
			}
			now += d
			durations[w] = append(durations[w], d)
			r.RecordIteration(w, iter, now)
		}
	}
	for k := 0; k <= maxWarmup; k++ {
		var sum time.Duration
		m := 0
		for _, ds := range durations {
			for _, d := range ds[min(k, len(ds)):] {
				sum += d
				m++
			}
		}
		if got, want := r.MeanIterDurationAll(k), sum/time.Duration(m); got != want {
			t.Errorf("MeanIterDurationAll(%d) = %v, explicit mean %v", k, got, want)
		}
	}
}

func TestMeanIterDurationWarmupRange(t *testing.T) {
	r := NewRecorder(1)
	for _, k := range []int{-1, maxWarmup + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MeanIterDurationAll(%d) did not panic", k)
				}
			}()
			r.MeanIterDurationAll(k)
		}()
	}
}

func TestRecordIterationAllocatesNothing(t *testing.T) {
	r := NewRecorder(4)
	var now time.Duration
	iter := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		now += time.Millisecond
		r.RecordIteration(iter%4, iter, now)
		iter++
	}); allocs != 0 {
		t.Errorf("RecordIteration allocates %.1f per call, want 0", allocs)
	}
}
