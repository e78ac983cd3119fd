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
// A Webspam sample is one bit-sliced draw (Webspam.draw):
//   - each rng.Uint64() is cut, low bits first, into ⌊64/nb⌋ candidate
//     indices of nb = bits.Len(Features−1) bits;
//   - a candidate ≥ Features or already drawn is rejected; what is left
//     of the word once nnz are accepted is discarded;
//   - one further rng.Uint64() per 64 values gives the signs: bit k&63 is
//     the sign of the k-th value in ascending index order (0: +1, 1: −1);
//   - the label is the sign of Σ val·truth[idx] summed in that order,
//     flipped when one rng.Float64() falls below the flip probability.
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

	"hop/internal/seeded"
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
	rng := seeded.New(seed)
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

	// idx and val are the two slabs every slot of X is a window of:
	// sample i owns [i·nnz, (i+1)·nnz) of each.
	idx []int
	val []float64

	// seen and nonzero are the sampler's scratch, all clear between
	// samples: one bit per feature, and one bit per word of seen that
	// is set while that word is not zero (Webspam.draw).
	seen    []uint64
	nonzero []uint64
}

// Webspam is a synthetic sparse binary-classification dataset.
type Webspam struct {
	Features int
	truth    []float64
	nnz      int
	flip     float64 // label noise probability
}

// NewWebspam creates a dataset over the given feature dimension with
// nnz active features per sample and label-flip noise. It panics on
// what the sampler cannot serve: no feature, a negative nnz, a flip that
// is no probability, and nnz above features — a sample's active features
// are distinct, so no such sample exists and the sampler would never
// return.
func NewWebspam(features, nnz int, flip float64, seed int64) *Webspam {
	if features < 1 {
		panic(fmt.Sprintf("data: NewWebspam: %d features, need at least 1", features))
	}
	if nnz < 0 {
		panic(fmt.Sprintf("data: NewWebspam: %d active features per sample", nnz))
	}
	if nnz > features {
		panic(fmt.Sprintf("data: NewWebspam: %d active features per sample out of only %d features", nnz, features))
	}
	if !(flip >= 0 && flip <= 1) {
		panic(fmt.Sprintf("data: NewWebspam: label-flip probability %g outside [0, 1]", flip))
	}
	rng := seeded.New(seed)
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
// reusing batch's buffers when large enough: its slots are windows of
// two slabs of b·nnz indices and values. The RNG consumption sequence
// is identical to Sample's, so reusing buffers never changes what is
// drawn.
func (d *Webspam) SampleInto(batch *SpamBatch, rng *rand.Rand, b int) {
	nnz := d.nnz
	if cap(batch.X) < b {
		batch.X = make([]SparseVec, b)
	}
	if cap(batch.Labels) < b {
		batch.Labels = make([]float64, b)
	}
	if cap(batch.idx) < b*nnz {
		batch.idx = make([]int, b*nnz)
	}
	if cap(batch.val) < b*nnz {
		batch.val = make([]float64, b*nnz)
	}
	batch.X, batch.Labels = batch.X[:b], batch.Labels[:b]
	batch.idx, batch.val = batch.idx[:b*nnz], batch.val[:b*nnz]
	if words := (d.Features + 63) / 64; len(batch.seen) != words {
		batch.seen = make([]uint64, words)
		batch.nonzero = make([]uint64, (words+63)/64)
	}
	for i := 0; i < b; i++ {
		lo, hi := i*nnz, (i+1)*nnz
		v := SparseVec{Idx: batch.idx[lo:hi:hi], Val: batch.val[lo:hi:hi]}
		batch.X[i] = v
		label := 1.0
		if d.draw(v, batch.seen, batch.nonzero, rng) < 0 {
			label = -1.0
		}
		if rng.Float64() < d.flip {
			label = -label
		}
		batch.Labels[i] = label
	}
}

// draw fills v — len(v.Idx) = len(v.Val) = nnz — with nnz distinct
// sorted indices and ±1 values as the package comment specifies, and
// returns the sample's margin against the ground truth: v.Dot(d.truth)
// bit for bit (same products, same ascending order). seen and nonzero
// are all clear on entry and on return.
func (d *Webspam) draw(v SparseVec, seen, nonzero []uint64, rng *rand.Rand) float64 {
	features, nnz := d.Features, len(v.Idx)
	nb := bits.Len(uint(features - 1))
	mask := uint64(1)<<nb - 1
	for accepted := 0; accepted < nnz; {
		// nb is 0 when there is one feature: every field is then the
		// candidate 0, and the first one ends the loop.
		word := rng.Uint64()
		for left := 64; left >= nb && accepted < nnz; left -= nb {
			c := int(word & mask)
			word >>= nb
			if c >= features {
				continue
			}
			if bit := uint64(1) << (c & 63); seen[c>>6]&bit == 0 {
				seen[c>>6] |= bit
				nonzero[c>>12] |= 1 << (c >> 6 & 63)
				accepted++
			}
		}
	}
	// nonzero names the words of seen that hold a bit, so the sorted
	// list falls out of a scan of those alone; clearing each word as it
	// is read leaves both sets clear again. (truth as a local: the
	// stores below may alias *d as far as the compiler knows.)
	truth, idxs, vals := d.truth, v.Idx, v.Val
	margin, k := 0.0, 0
	var signs uint64
	for s, summary := range nonzero {
		nonzero[s] = 0
		for ; summary != 0; summary &= summary - 1 {
			w := s<<6 | bits.TrailingZeros64(summary)
			word := seen[w]
			seen[w] = 0
			for ; word != 0; word &= word - 1 {
				if k&63 == 0 {
					signs = rng.Uint64()
				}
				idx := w<<6 | bits.TrailingZeros64(word)
				val := float64(1 - 2*int64(signs&1))
				signs >>= 1
				idxs[k], vals[k] = idx, val
				margin += val * truth[idx]
				k++
			}
		}
	}
	return margin
}
