// Package data generates the synthetic datasets that stand in for the
// paper's CIFAR-10 and webspam workloads (neither is available offline;
// see DESIGN.md §1).
//
// Images draws class prototypes and perturbs them with Gaussian noise,
// giving a classification task with real learning dynamics for the CNN.
// Webspam draws a sparse ground-truth weight vector and labels sparse
// binary feature vectors by its sign with label noise, mirroring the
// sparse high-dimensional linear task of the webspam dataset.
//
// All generation is deterministic per seed, and samplers take the
// caller's RNG so distributed workers draw independent, reproducible
// mini-batches.
package data

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// ImageBatch is a batch of dense image samples with integer labels.
type ImageBatch struct {
	X      []float64 // [B, C*H*W]
	Labels []int
	B      int
}

// Images is a synthetic image-classification dataset.
type Images struct {
	C, H, W int
	Classes int

	prototypes [][]float64
	noise      float64
}

// NewImages creates a dataset of classes Gaussian prototypes over
// C×H×W images with the given per-pixel noise level.
func NewImages(c, h, w, classes int, noise float64, seed int64) *Images {
	rng := rand.New(rand.NewSource(seed))
	d := &Images{C: c, H: h, W: w, Classes: classes, noise: noise}
	size := c * h * w
	d.prototypes = make([][]float64, classes)
	for k := range d.prototypes {
		p := make([]float64, size)
		for i := range p {
			p[i] = rng.NormFloat64()
		}
		d.prototypes[k] = p
	}
	return d
}

// SampleSize returns the per-sample feature count.
func (d *Images) SampleSize() int { return d.C * d.H * d.W }

// Sample draws a batch of b labeled samples using rng.
func (d *Images) Sample(rng *rand.Rand, b int) ImageBatch {
	var batch ImageBatch
	d.SampleInto(&batch, rng, b)
	return batch
}

// SampleInto draws a batch of b labeled samples using rng, reusing
// batch's buffers when they are large enough — the allocation-free form
// the training hot path uses (a trainer resamples every iteration; the
// draw itself is identical to Sample's).
func (d *Images) SampleInto(batch *ImageBatch, rng *rand.Rand, b int) {
	size := d.SampleSize()
	if cap(batch.X) < b*size {
		batch.X = make([]float64, b*size)
	}
	if cap(batch.Labels) < b {
		batch.Labels = make([]int, b)
	}
	batch.X, batch.Labels, batch.B = batch.X[:b*size], batch.Labels[:b], b
	for i := 0; i < b; i++ {
		k := rng.Intn(d.Classes)
		batch.Labels[i] = k
		proto := d.prototypes[k]
		row := batch.X[i*size : (i+1)*size]
		for j := range row {
			row[j] = proto[j] + rng.NormFloat64()*d.noise
		}
	}
}

// SparseVec is a sparse feature vector in coordinate form; indices are
// strictly increasing.
type SparseVec struct {
	Idx []int
	Val []float64
}

// Dot returns the inner product of the sparse vector with dense w.
func (s SparseVec) Dot(w []float64) float64 {
	sum := 0.0
	for i, idx := range s.Idx {
		sum += s.Val[i] * w[idx]
	}
	return sum
}

// SpamBatch is a batch of sparse samples with ±1 labels.
type SpamBatch struct {
	X      []SparseVec
	Labels []float64 // ±1

	// seen is the sampler's scratch: one bit per feature, all clear
	// between samples (sampleSparseInto).
	seen []uint64
}

// Webspam is a synthetic sparse binary-classification dataset.
type Webspam struct {
	Features int
	truth    []float64
	nnz      int
	flip     float64 // label noise probability
}

// NewWebspam creates a dataset over the given feature dimension with
// nnz active features per sample and label-flip noise. It panics when
// nnz exceeds features: a sample's active features are distinct, so no
// such sample exists and the sampler would never return.
func NewWebspam(features, nnz int, flip float64, seed int64) *Webspam {
	if nnz > features {
		panic(fmt.Sprintf("data: NewWebspam: %d active features per sample out of only %d features", nnz, features))
	}
	rng := rand.New(rand.NewSource(seed))
	d := &Webspam{Features: features, nnz: nnz, flip: flip}
	d.truth = make([]float64, features)
	for i := range d.truth {
		d.truth[i] = rng.NormFloat64() / math.Sqrt(float64(nnz))
	}
	return d
}

// Sample draws a batch of b labeled sparse samples using rng.
func (d *Webspam) Sample(rng *rand.Rand, b int) SpamBatch {
	var batch SpamBatch
	d.SampleInto(&batch, rng, b)
	return batch
}

// SampleInto draws a batch of b labeled sparse samples using rng,
// reusing batch's buffers (including each slot's Idx/Val backing
// arrays) when large enough. The RNG consumption sequence is identical
// to Sample's, so reusing buffers never changes what is drawn.
func (d *Webspam) SampleInto(batch *SpamBatch, rng *rand.Rand, b int) {
	for len(batch.X) < b {
		batch.X = append(batch.X, SparseVec{})
	}
	batch.X = batch.X[:b]
	if cap(batch.Labels) < b {
		batch.Labels = make([]float64, b)
	}
	batch.Labels = batch.Labels[:b]
	if words := (d.Features + 63) / 64; len(batch.seen) != words {
		batch.seen = make([]uint64, words)
	}
	for i := 0; i < b; i++ {
		sampleSparseInto(&batch.X[i], batch.seen, rng, d.Features, d.nnz)
		margin := batch.X[i].Dot(d.truth)
		label := 1.0
		if margin < 0 {
			label = -1.0
		}
		if rng.Float64() < d.flip {
			label = -label
		}
		batch.Labels[i] = label
	}
}

// sampleSparseInto draws nnz distinct sorted indices with ±1 values
// into v, reusing its backing arrays. seen holds one bit per feature,
// all clear on entry and on return: a draw is accepted iff its bit was
// clear — the accept/reject outcome of any duplicate check, hence the
// same RNG stream — and the sorted index list falls out of one scan
// over the set bits, which clears them again.
func sampleSparseInto(v *SparseVec, seen []uint64, rng *rand.Rand, features, nnz int) {
	for accepted := 0; accepted < nnz; {
		i := rng.Intn(features)
		if bit := uint64(1) << (i & 63); seen[i>>6]&bit == 0 {
			seen[i>>6] |= bit
			accepted++
		}
	}
	if cap(v.Idx) < nnz {
		v.Idx = make([]int, 0, nnz)
	}
	idx := v.Idx[:0]
	for w, word := range seen {
		if word == 0 {
			continue
		}
		seen[w] = 0
		for ; word != 0; word &= word - 1 {
			idx = append(idx, w<<6|bits.TrailingZeros64(word))
		}
	}
	v.Idx = idx
	if cap(v.Val) < nnz {
		v.Val = make([]float64, nnz)
	}
	v.Val = v.Val[:nnz]
	for i := range v.Val {
		if rng.Intn(2) == 0 {
			v.Val[i] = 1
		} else {
			v.Val[i] = -1
		}
	}
}
