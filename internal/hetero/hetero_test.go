package hetero

import (
	"math/rand"
	"testing"
	"time"
)

func TestNoneAlwaysOne(t *testing.T) {
	c := Compute{Base: 100 * time.Millisecond}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		if got := c.IterTime(i, i, rng); got != 100*time.Millisecond {
			t.Errorf("IterTime = %v", got)
		}
	}
}

func TestRandomSlowdownFrequency(t *testing.T) {
	r := Random{Fact: 6, Prob: 0.25}
	rng := rand.New(rand.NewSource(2))
	slowed := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		if r.Factor(0, i, rng) == 6 {
			slowed++
		}
	}
	frac := float64(slowed) / trials
	if frac < 0.22 || frac > 0.28 {
		t.Errorf("slowdown frequency %.3f, want ≈0.25", frac)
	}
}

func TestDeterministicSlowdown(t *testing.T) {
	d := Deterministic{Factors: map[int]float64{3: 4}}
	rng := rand.New(rand.NewSource(3))
	if d.Factor(3, 0, rng) != 4 {
		t.Error("slow worker factor")
	}
	if d.Factor(0, 0, rng) != 1 {
		t.Error("fast worker factor")
	}
	c := Compute{Base: time.Second, Slow: d}
	if got := c.IterTime(3, 5, rng); got != 4*time.Second {
		t.Errorf("IterTime = %v, want 4s", got)
	}
}

func TestCombinedMultiplies(t *testing.T) {
	c := Combined{
		Deterministic{Factors: map[int]float64{0: 2}},
		Deterministic{Factors: map[int]float64{0: 3}},
	}
	rng := rand.New(rand.NewSource(4))
	if got := c.Factor(0, 0, rng); got != 6 {
		t.Errorf("combined factor %g, want 6", got)
	}
	if got := c.Factor(1, 0, rng); got != 1 {
		t.Errorf("combined factor %g, want 1", got)
	}
}

func TestFactorBelowOneClamped(t *testing.T) {
	c := Compute{Base: time.Second, Slow: Deterministic{Factors: map[int]float64{0: 0.5}}}
	rng := rand.New(rand.NewSource(5))
	if got := c.IterTime(0, 0, rng); got != time.Second {
		t.Errorf("IterTime = %v, want clamp to 1x", got)
	}
}

func TestStringsNonEmpty(t *testing.T) {
	for _, s := range []Slowdown{None{}, Random{Fact: 6, Prob: 0.1}, Deterministic{Factors: map[int]float64{1: 2}}, Combined{None{}}} {
		if s.String() == "" {
			t.Errorf("%T has empty String()", s)
		}
	}
}

// TestWorkerRNGMatchesEagerSource: the lazily seeded RNG draws the
// sequence an eagerly seeded one does, through every Rand method the
// profiles and tests use, and after a reseed.
func TestWorkerRNGMatchesEagerSource(t *testing.T) {
	const seed = 7
	for _, w := range []int{0, 1, 1023} {
		got := WorkerRNG(seed, w)
		want := rand.New(rand.NewSource(seed + int64(w)*104729 + 11))
		for round := 0; round < 2; round++ {
			for i := 0; i < 200; i++ {
				switch i % 5 {
				case 0:
					if a, b := got.Float64(), want.Float64(); a != b {
						t.Fatalf("w=%d draw %d Float64: %v != %v", w, i, a, b)
					}
				case 1:
					if a, b := got.Int63(), want.Int63(); a != b {
						t.Fatalf("w=%d draw %d Int63: %v != %v", w, i, a, b)
					}
				case 2:
					if a, b := got.Uint64(), want.Uint64(); a != b {
						t.Fatalf("w=%d draw %d Uint64: %v != %v", w, i, a, b)
					}
				case 3:
					if a, b := got.NormFloat64(), want.NormFloat64(); a != b {
						t.Fatalf("w=%d draw %d NormFloat64: %v != %v", w, i, a, b)
					}
				case 4:
					if a, b := got.Intn(1000), want.Intn(1000); a != b {
						t.Fatalf("w=%d draw %d Intn: %v != %v", w, i, a, b)
					}
				}
			}
			got.Seed(int64(100 + w))
			want.Seed(int64(100 + w))
		}
	}
}

// rngSink keeps the RNGs the allocation counts build on the heap.
var rngSink *rand.Rand

// TestWorkerRNGSeedsOnFirstDraw: IterTime under the profiles that draw
// nothing never seeds the worker's source — building the RNG and
// timing many iterations allocates exactly what building it alone
// does — while a Random profile seeds it once, on its first draw.
func TestWorkerRNGSeedsOnFirstDraw(t *testing.T) {
	build := testing.AllocsPerRun(100, func() { rngSink = WorkerRNG(1, 3) })
	timed := func(slow Slowdown) float64 {
		c := Compute{Base: time.Millisecond, Slow: slow}
		return testing.AllocsPerRun(100, func() {
			rngSink = WorkerRNG(1, 3)
			for i := 0; i < 50; i++ {
				c.IterTime(3, i, rngSink)
			}
		})
	}
	for _, slow := range []Slowdown{nil, None{}, Deterministic{Factors: map[int]float64{3: 4}}} {
		if got := timed(slow); got != build {
			t.Errorf("%v: %v allocations, want %v (building the RNG alone): the source was seeded", slow, got, build)
		}
	}
	if got := timed(Random{Fact: 6, Prob: 0.5}); got != build+1 {
		t.Errorf("random: %v allocations, want %v (one seeded source)", got, build+1)
	}
}
