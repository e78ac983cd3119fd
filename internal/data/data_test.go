package data

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestImagesDeterministicPerSeed(t *testing.T) {
	d1 := NewImages(3, 8, 8, 4, 0.5, 42)
	d2 := NewImages(3, 8, 8, 4, 0.5, 42)
	b1 := d1.Sample(rand.New(rand.NewSource(1)), 4)
	b2 := d2.Sample(rand.New(rand.NewSource(1)), 4)
	for i := range b1.X {
		if b1.X[i] != b2.X[i] {
			t.Fatal("same seed should give identical samples")
		}
	}
	d3 := NewImages(3, 8, 8, 4, 0.5, 43)
	b3 := d3.Sample(rand.New(rand.NewSource(1)), 4)
	same := true
	for i := range b1.X {
		if b1.X[i] != b3.X[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should give different data")
	}
}

func TestImagesShapesAndLabels(t *testing.T) {
	d := NewImages(3, 8, 8, 5, 0.5, 1)
	if d.SampleSize() != 192 {
		t.Errorf("SampleSize = %d", d.SampleSize())
	}
	b := d.Sample(rand.New(rand.NewSource(2)), 10)
	if b.B != 10 || len(b.X) != 1920 || len(b.Labels) != 10 {
		t.Errorf("batch shape wrong: B=%d len=%d labels=%d", b.B, len(b.X), len(b.Labels))
	}
	for _, l := range b.Labels {
		if l < 0 || l >= 5 {
			t.Errorf("label %d out of range", l)
		}
	}
}

func TestImagesClassesAreSeparable(t *testing.T) {
	// With low noise, samples should be closest to their own class
	// prototype: nearest-prototype classification should beat chance
	// by a wide margin.
	d := NewImages(3, 8, 8, 4, 0.3, 7)
	rng := rand.New(rand.NewSource(3))
	b := d.Sample(rng, 200)
	correct := 0
	size := d.SampleSize()
	for i := 0; i < 200; i++ {
		x := b.X[i*size : (i+1)*size]
		best, bi := -1.0, -1
		for k, p := range d.prototypes {
			dot := 0.0
			for j := range p {
				dot += p[j] * x[j]
			}
			if bi == -1 || dot > best {
				best, bi = dot, k
			}
		}
		if bi == b.Labels[i] {
			correct++
		}
	}
	if correct < 180 {
		t.Errorf("nearest-prototype accuracy %d/200, want >=180", correct)
	}
}

func TestWebspamSparseStructure(t *testing.T) {
	d := NewWebspam(1000, 10, 0, 5)
	b := d.Sample(rand.New(rand.NewSource(4)), 20)
	for i, v := range b.X {
		if len(v.Idx) != 10 || len(v.Val) != 10 {
			t.Fatalf("sample %d has %d nnz, want 10", i, len(v.Idx))
		}
		for j := 1; j < len(v.Idx); j++ {
			if v.Idx[j] <= v.Idx[j-1] {
				t.Fatalf("sample %d indices not strictly increasing: %v", i, v.Idx)
			}
		}
		for _, x := range v.Val {
			if x != 1 && x != -1 {
				t.Fatalf("sample %d has non-binary value %g", i, x)
			}
		}
		if b.Labels[i] != 1 && b.Labels[i] != -1 {
			t.Fatalf("label %g not ±1", b.Labels[i])
		}
	}
}

func TestWebspamLabelsMatchTruthWithoutNoise(t *testing.T) {
	d := NewWebspam(500, 8, 0, 6)
	b := d.Sample(rand.New(rand.NewSource(5)), 100)
	for i, v := range b.X {
		margin := v.Dot(d.truth)
		want := 1.0
		if margin < 0 {
			want = -1.0
		}
		if b.Labels[i] != want {
			t.Fatalf("sample %d label %g disagrees with truth margin %g", i, b.Labels[i], margin)
		}
	}
}

func TestSparseDot(t *testing.T) {
	v := SparseVec{Idx: []int{1, 3}, Val: []float64{2, -1}}
	w := []float64{10, 20, 30, 40}
	if got := v.Dot(w); got != 2*20-40 {
		t.Errorf("Dot = %g, want 0", got)
	}
}

func TestPropertySparseSampleIndicesInRange(t *testing.T) {
	d := NewWebspam(300, 12, 0.1, 9)
	f := func(seed int64) bool {
		b := d.Sample(rand.New(rand.NewSource(seed)), 5)
		for _, v := range b.X {
			for _, idx := range v.Idx {
				if idx < 0 || idx >= 300 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// sampleSparseRef is the sampler sampleSparseInto replaced, kept as
// the reference: each draw binary-searches the sorted accepted prefix
// and inserts in place.
func sampleSparseRef(v *SparseVec, rng *rand.Rand, features, nnz int) {
	idx := v.Idx[:0]
	for len(idx) < nnz {
		i := rng.Intn(features)
		lo, hi := 0, len(idx)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if idx[mid] < i {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(idx) && idx[lo] == i {
			continue
		}
		idx = append(idx, 0)
		copy(idx[lo+1:], idx[lo:])
		idx[lo] = i
	}
	v.Idx = idx
	v.Val = v.Val[:0]
	for range idx {
		if rng.Intn(2) == 0 {
			v.Val = append(v.Val, 1)
		} else {
			v.Val = append(v.Val, -1)
		}
	}
}

// TestSampleSparseMatchesReference pins the bit-set sampler to the
// reference draw for draw: same indices, same values, same labels, and
// the RNG left in the same state — every SVM loss in the repository
// depends on it.
func TestSampleSparseMatchesReference(t *testing.T) {
	for _, c := range []struct{ features, nnz int }{{4096, 24}, {64, 63}, {7, 7}} {
		d := NewWebspam(c.features, c.nnz, 0.05, 3)
		got, want := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
		var batch SpamBatch
		var ref SparseVec
		for draw := 0; draw < 10000; draw++ {
			d.SampleInto(&batch, got, 1)
			sampleSparseRef(&ref, want, c.features, c.nnz)
			label := 1.0
			if ref.Dot(d.truth) < 0 {
				label = -1
			}
			if want.Float64() < d.flip {
				label = -label
			}
			v := batch.X[0]
			if len(v.Idx) != c.nnz || len(v.Val) != c.nnz {
				t.Fatalf("(%d,%d) draw %d: %d indices, %d values", c.features, c.nnz, draw, len(v.Idx), len(v.Val))
			}
			for j := range ref.Idx {
				if v.Idx[j] != ref.Idx[j] || v.Val[j] != ref.Val[j] {
					t.Fatalf("(%d,%d) draw %d: got %v %v, want %v %v", c.features, c.nnz, draw, v.Idx, v.Val, ref.Idx, ref.Val)
				}
			}
			if batch.Labels[0] != label {
				t.Fatalf("(%d,%d) draw %d: label %g, want %g", c.features, c.nnz, draw, batch.Labels[0], label)
			}
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Errorf("(%d,%d): RNG streams diverged (%d vs %d)", c.features, c.nnz, g, w)
		}
	}
}

// TestNewWebspamRejectsMoreActiveThanFeatures: the rejection sampler
// can never collect nnz distinct indices out of fewer features, so the
// constructor refuses instead of letting the first Sample spin.
func TestNewWebspamRejectsMoreActiveThanFeatures(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewWebspam(16, 24, ...) accepted")
		}
	}()
	NewWebspam(16, 24, 0, 1)
}
