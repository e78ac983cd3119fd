package data

import (
	"math"
	"math/bits"
	"math/rand"
	"sort"
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

// insertSorted inserts c into the sorted slice idx unless it is there.
func insertSorted(idx []int, c int) []int {
	at := sort.SearchInts(idx, c)
	if at < len(idx) && idx[at] == c {
		return idx
	}
	idx = append(idx, 0)
	copy(idx[at+1:], idx[at:])
	idx[at] = c
	return idx
}

// labelOf is the labelling both reference samplers share: the sign of
// the margin against the truth, flipped when one Float64 falls below
// the flip probability.
func labelOf(d *Webspam, v SparseVec, rng *rand.Rand) float64 {
	label := 1.0
	if v.Dot(d.truth) < 0 {
		label = -1
	}
	if rng.Float64() < d.flip {
		label = -label
	}
	return label
}

// specSample is the plain specification of Webspam.draw and of the
// labelling around it: candidates are nb-bit fields of a Uint64, low
// field first, inserted into a sorted slice; value k's sign is bit k%64
// of one further Uint64 per 64 values; the label is the sign of the
// margin against the truth, flipped when one Float64 falls below flip.
func specSample(d *Webspam, rng *rand.Rand) (SparseVec, float64) {
	nb := bits.Len(uint(d.Features - 1))
	var v SparseVec
	for len(v.Idx) < d.nnz {
		word := rng.Uint64()
		for f := 0; (f+1)*nb <= 64 && len(v.Idx) < d.nnz; f++ {
			if c := int(word >> (f * nb) & (1<<nb - 1)); c < d.Features {
				v.Idx = insertSorted(v.Idx, c)
			}
		}
	}
	var signs uint64
	for k := range v.Idx {
		if k%64 == 0 {
			signs = rng.Uint64()
		}
		if signs>>(k%64)&1 == 0 {
			v.Val = append(v.Val, 1)
		} else {
			v.Val = append(v.Val, -1)
		}
	}
	return v, labelOf(d, v, rng)
}

// webspamShapes are the (features, nnz) pairs the sampler tests walk:
// the SVM workload's shape, every feature but one and every feature
// active (the rejection loop still ends), a single feature (zero-bit
// fields), and two feature counts that are not powers of two (2 % and
// half of the candidates rejected as out of range).
var webspamShapes = []struct{ features, nnz int }{
	{4096, 24}, {64, 63}, {7, 7}, {1, 1}, {1000, 24}, {4097, 24},
}

// TestSampleSparseMatchesReference pins the sampler to its
// specification draw for draw: same indices, same values, same labels,
// and the RNG left in the same state — every SVM loss in the repository
// depends on it.
func TestSampleSparseMatchesReference(t *testing.T) {
	for _, c := range webspamShapes {
		d := NewWebspam(c.features, c.nnz, 0.05, 3)
		got, want := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
		var batch SpamBatch
		for draw := 0; draw < 10000; draw++ {
			d.SampleInto(&batch, got, 1)
			ref, label := specSample(d, want)
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

// TestSampleIntoLeavesScratchClear: after every sample the indices are
// strictly increasing and in range, and both levels of the sampler's
// bit-set are all zero again — the next sample's duplicate check and
// sorted scan depend on it.
func TestSampleIntoLeavesScratchClear(t *testing.T) {
	for _, c := range webspamShapes {
		d := NewWebspam(c.features, c.nnz, 0.05, 3)
		rng := rand.New(rand.NewSource(12))
		var batch SpamBatch
		for draw := 0; draw < 2000; draw++ {
			d.SampleInto(&batch, rng, 1)
			idx := batch.X[0].Idx
			for j, x := range idx {
				if x < 0 || x >= c.features || (j > 0 && x <= idx[j-1]) {
					t.Fatalf("(%d,%d) draw %d: indices %v", c.features, c.nnz, draw, idx)
				}
			}
			for _, set := range [][]uint64{batch.seen, batch.nonzero} {
				for w, word := range set {
					if word != 0 {
						t.Fatalf("(%d,%d) draw %d: scratch word %d left at %#x", c.features, c.nnz, draw, w, word)
					}
				}
			}
		}
	}
}

// TestSampleIntoReusesBatch: a batch buffer draws what a fresh batch
// draws, allocates nothing after its first use, and re-sizes its slabs
// and bit-sets when handed to a dataset of another shape.
func TestSampleIntoReusesBatch(t *testing.T) {
	small, large := NewWebspam(100, 5, 0.05, 3), NewWebspam(4097, 24, 0.05, 4)
	var batch SpamBatch
	for round, d := range []*Webspam{small, large, small} {
		reused, fresh := rand.New(rand.NewSource(13)), rand.New(rand.NewSource(13))
		d.SampleInto(&batch, reused, 8)
		want := d.Sample(fresh, 8)
		if len(batch.X) != 8 || len(batch.idx) != 8*d.nnz || len(batch.val) != 8*d.nnz ||
			len(batch.seen) != (d.Features+63)/64 || len(batch.nonzero) != (len(batch.seen)+63)/64 {
			t.Fatalf("round %d: %d slots, slabs %d/%d, bit-sets %d/%d", round, len(batch.X), len(batch.idx), len(batch.val), len(batch.seen), len(batch.nonzero))
		}
		for i, v := range batch.X {
			if len(v.Idx) != d.nnz || len(v.Val) != d.nnz || &v.Idx[0] != &batch.idx[i*d.nnz] || &v.Val[0] != &batch.val[i*d.nnz] {
				t.Fatalf("round %d: slot %d is not its window of the slabs", round, i)
			}
			for j := range v.Idx {
				if v.Idx[j] != want.X[i].Idx[j] || v.Val[j] != want.X[i].Val[j] {
					t.Fatalf("round %d: slot %d drew %v %v, a fresh batch %v %v", round, i, v.Idx, v.Val, want.X[i].Idx, want.X[i].Val)
				}
			}
			if batch.Labels[i] != want.Labels[i] {
				t.Fatalf("round %d: slot %d label %g, a fresh batch %g", round, i, batch.Labels[i], want.Labels[i])
			}
		}
	}
	rng := rand.New(rand.NewSource(14))
	large.SampleInto(&batch, rng, 32)
	if allocs := testing.AllocsPerRun(100, func() { large.SampleInto(&batch, rng, 32) }); allocs != 0 {
		t.Errorf("SampleInto on a warm batch: %g allocs/op, want 0", allocs)
	}
}

// oldSample is the sampler the bit-sliced draw replaced — one Intn per
// candidate, one Intn(2) per sign — kept as the distribution oracle: the
// two consume the RNG differently and must draw from the same law.
func oldSample(d *Webspam, rng *rand.Rand) (SparseVec, float64) {
	var v SparseVec
	for len(v.Idx) < d.nnz {
		v.Idx = insertSorted(v.Idx, rng.Intn(d.Features))
	}
	for range v.Idx {
		if rng.Intn(2) == 0 {
			v.Val = append(v.Val, 1)
		} else {
			v.Val = append(v.Val, -1)
		}
	}
	return v, labelOf(d, v, rng)
}

// newSample adapts SampleInto to oldSample's shape.
func newSample(batch *SpamBatch) func(*Webspam, *rand.Rand) (SparseVec, float64) {
	return func(d *Webspam, rng *rand.Rand) (SparseVec, float64) {
		d.SampleInto(batch, rng, 1)
		return batch.X[0], batch.Labels[0]
	}
}

// TestDrawMatchesOldDistribution: over 200 000 samples — at the SVM
// workload's shape and at one whose top candidates are rejected as out
// of range — the draw and the old sampler each agree with the law both
// are meant to follow: uniform feature inclusion, fair signs, labels
// that are the margin's sign flipped at the configured rate, a
// symmetric margin of variance (nnz/features)·Σ truth². Every tolerance
// is about five standard errors of its statistic.
func TestDrawMatchesOldDistribution(t *testing.T) {
	const n, nnz, flip = 200000, 24, 0.05
	var batch SpamBatch
	samplers := []struct {
		name   string
		sample func(*Webspam, *rand.Rand) (SparseVec, float64)
	}{{"draw", newSample(&batch)}, {"old", oldSample}}
	for _, features := range []int{4096, 1000} {
		d := NewWebspam(features, nnz, flip, 3)
		wantVar := 0.0
		for _, w := range d.truth {
			wantVar += w * w * nnz / float64(features)
		}
		for _, s := range samplers {
			rng := rand.New(rand.NewSource(15))
			counts := make([]float64, features)
			var plus, flipped, positive, sum, sumSq float64
			for i := 0; i < n; i++ {
				v, label := s.sample(d, rng)
				for k, idx := range v.Idx {
					counts[idx]++
					if v.Val[k] == 1 {
						plus++
					}
				}
				margin := v.Dot(d.truth)
				if (margin < 0) != (label < 0) {
					flipped++
				}
				if label > 0 {
					positive++
				}
				sum += margin
				sumSq += margin * margin
			}
			// Pearson's statistic over the inclusion counts has
			// features−1 degrees of freedom: mean features−1,
			// standard deviation √(2·(features−1)).
			chi2, expect := 0.0, n*nnz/float64(features)
			for _, c := range counts {
				chi2 += (c - expect) * (c - expect) / expect
			}
			mean, dof := sum/n, float64(features-1)
			for _, c := range []struct {
				what           string
				got, want, tol float64
			}{
				{"inclusion χ²", chi2, dof, 5 * math.Sqrt(2*dof)},
				{"share of +1 values", plus / (n * nnz), 0.5, 0.0012},
				{"flip rate", flipped / n, flip, 0.0025},
				{"P(label = +1)", positive / n, 0.5, 0.006},
				{"margin mean", mean, 0, 5 * math.Sqrt(wantVar/n)},
				{"margin variance", sumSq/n - mean*mean, wantVar, 0.02 * wantVar},
			} {
				if math.Abs(c.got-c.want) > c.tol {
					t.Errorf("%s, %d features: %s = %.5f, want %.5f ± %.5f", s.name, features, c.what, c.got, c.want, c.tol)
				}
			}
		}
	}
}

// TestDrawTrainsLikeOldStream: a linear classifier trained by SGD on
// log loss over one sampler's stream scores the same held-out loss, to
// 0.02, on the other sampler's held-out set as on its own — the check
// that stands behind re-pinning every SVM number to the new stream.
func TestDrawTrainsLikeOldStream(t *testing.T) {
	const features, nnz, steps, batchSize, held, lr = 4096, 24, 3000, 32, 20000, 0.5
	d := NewWebspam(features, nnz, 0.05, 3)
	var batch SpamBatch
	samplers := []func(*Webspam, *rand.Rand) (SparseVec, float64){newSample(&batch), oldSample}
	logLoss := func(z float64) float64 { // log(1+e^−z)
		if z > 0 {
			return math.Log1p(math.Exp(-z))
		}
		return -z + math.Log1p(math.Exp(z))
	}
	for train, name := range []string{"draw", "old"} {
		w := make([]float64, features)
		rng := rand.New(rand.NewSource(16))
		for s := 0; s < steps; s++ {
			grad := map[int]float64{}
			for i := 0; i < batchSize; i++ {
				v, y := samplers[train](d, rng)
				// d/dw log(1+e^{−y·w·x}) = −y·σ(−y·w·x)·x
				coef := -y / (1 + math.Exp(y*v.Dot(w))) / batchSize
				for k, idx := range v.Idx {
					grad[idx] += coef * v.Val[k]
				}
			}
			for idx, g := range grad {
				w[idx] -= lr * g
			}
		}
		var loss [2]float64
		for eval := range samplers {
			rng := rand.New(rand.NewSource(17))
			for i := 0; i < held; i++ {
				v, y := samplers[eval](d, rng)
				loss[eval] += logLoss(y*v.Dot(w)) / held
			}
		}
		if loss[0] > 0.6 || math.Abs(loss[0]-loss[1]) > 0.02 {
			t.Errorf("trained on %s: held-out loss %.4f on the draw's set, %.4f on the old sampler's (want < 0.6, within 0.02)", name, loss[0], loss[1])
		}
	}
}

// TestNewWebspamRejectsMoreActiveThanFeatures: the rejection sampler
// can never collect nnz distinct indices out of fewer features, so the
// constructor refuses instead of letting the first Sample spin — and
// with it every other shape the draw cannot serve.
func TestNewWebspamRejectsMoreActiveThanFeatures(t *testing.T) {
	for _, c := range []struct {
		features, nnz int
		flip          float64
	}{{16, 24, 0}, {0, 0, 0}, {-4, 0, 0}, {16, -1, 0}, {16, 4, -0.1}, {16, 4, 1.5}, {16, 4, math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewWebspam(%d, %d, %g, ...) accepted", c.features, c.nnz, c.flip)
				}
			}()
			NewWebspam(c.features, c.nnz, c.flip, 1)
		}()
	}
}
