package seeded

import (
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds are the seeds where math/rand's reduction to [1, 2³¹−2]
// takes a branch: zero and its multiples, the sign fold, the modulus
// and its neighbours, and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, zeroSeed, -zeroSeed,
	int32max, -int32max, 1 << 31, -(1 << 31),
	int32max - 1, int32max + 1, 2 * int32max,
	math.MinInt64, math.MaxInt64,
}

// sameStream reports the first draw where seeded and math/rand differ
// over n Uint64 draws of seed, or -1.
func sameStream(seed int64, n int) int {
	want := rand.NewSource(seed).(rand.Source64)
	got := NewSource(seed)
	for i := 0; i < n; i++ {
		if got.Uint64() != want.Uint64() {
			return i
		}
	}
	return -1
}

func TestMatchesMathRandAtEdgeSeeds(t *testing.T) {
	for _, seed := range edgeSeeds {
		if i := sameStream(seed, 2*rngLen); i >= 0 {
			t.Errorf("seed %d: draw %d differs from math/rand", seed, i)
		}
	}
}

func TestMatchesMathRandOverSeeds(t *testing.T) {
	n := 2000
	if testing.Short() {
		n = 200
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		seed := r.Int63() - r.Int63()
		if i%2 == 0 {
			seed = int64(i) - int64(n)/2
		}
		if d := sameStream(seed, rngLen+100); d >= 0 {
			t.Fatalf("seed %d: draw %d differs from math/rand", seed, d)
		}
	}
}

func TestReseedInPlace(t *testing.T) {
	s := NewSource(3)
	for i := 0; i < 1000; i++ {
		s.Uint64()
	}
	s.Seed(-42)
	want := rand.NewSource(-42).(rand.Source64)
	for i := 0; i < 2*rngLen; i++ {
		if s.Uint64() != want.Uint64() {
			t.Fatalf("draw %d after reseeding differs from a fresh math/rand source", i)
		}
	}
	if s.Int63() != want.Int63() {
		t.Fatal("Int63 differs from math/rand")
	}
}

func TestSeedDoesNotAllocate(t *testing.T) {
	s := NewSource(1)
	seed := int64(0)
	if a := testing.AllocsPerRun(10, func() { seed++; s.Seed(seed) }); a != 0 {
		t.Fatalf("Seed allocates %v objects, want 0", a)
	}
}

func FuzzSeededMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if i := sameStream(seed, 2*rngLen); i >= 0 {
			t.Fatalf("seed %d: Uint64 draw %d differs from math/rand", seed, i)
		}
		got, want := New(seed), rand.New(rand.NewSource(seed))
		for _, n := range []int{1, 2, 7, 1000, 1<<30 + 1, 1<<31 - 1} {
			if a, b := got.Intn(n), want.Intn(n); a != b {
				t.Fatalf("seed %d: Intn(%d) = %d, math/rand %d", seed, n, a, b)
			}
		}
		if a, b := got.Int63n(1<<40+1), want.Int63n(1<<40+1); a != b {
			t.Fatalf("seed %d: Int63n = %d, math/rand %d", seed, a, b)
		}
		a, b := got.Perm(64), want.Perm(64)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: Perm(64)[%d] = %d, math/rand %d", seed, i, a[i], b[i])
			}
		}
		for i := 0; i < 100; i++ {
			if a, b := got.NormFloat64(), want.NormFloat64(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d: NormFloat64 draw %d = %v, math/rand %v", seed, i, a, b)
			}
			if a, b := got.Float64(), want.Float64(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d: Float64 draw %d = %v, math/rand %v", seed, i, a, b)
			}
		}
	})
}

// BenchmarkSeed reseeds one source in place: seeded's power table
// against math/rand's Lehmer chain.
func BenchmarkSeed(b *testing.B) {
	for _, bc := range []struct {
		name string
		src  rand.Source
	}{
		{"seeded", NewSource(1)},
		{"math-rand", rand.NewSource(1)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.src.Seed(int64(i))
			}
		})
	}
}
