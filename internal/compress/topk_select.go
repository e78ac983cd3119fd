package compress

// topk_select.go — the threshold selection behind the TopK codec
// (DESIGN.md §2.3). The original encoder built an explicit index
// permutation, quickselected it with indirect compares, and sorted the
// survivors; this one selects by *value threshold* among a gathered
// candidate set, in three steps on the calling goroutine:
//
//	gather  the candidates are the indices whose magnitude exceeds a
//	        cutoff, in ascending order. A delta stream that has a
//	        threshold from its previous frame cuts at 0.9 × it: the kth
//	        magnitude drifts slowly from frame to frame, so about 1.5·k
//	        of the n coordinates clear the cutoff, and one pass computes
//	        src[i] = x[i] − ref[i] and compacts their indices. Without
//	        a cutoff every index is a candidate and there is nothing to
//	        compact: the stateless codec, a stream's first sparse frame
//	        after a NaN, and a refill — fewer than k candidates cleared
//	        the cutoff, so the threshold fell by more than the margin.
//	select  the threshold T — the kth largest magnitude — is the kth
//	        largest candidate: at least k magnitudes exceed the cutoff,
//	        so T does, and every magnitude ≥ T is a candidate.
//	emit    one scan of the candidate indices writes the (uint32 index,
//	        float32 value) pairs of everything above T plus the
//	        lowest-indexed ties at T, already in ascending index order.
//
// Byte identity: selection follows the strict total order of topKLess
// (|value| descending, index ascending), under which the top-k *set*
// is unique — all magnitudes above T, plus the lowest-indexed ties at
// T — so the payload is the same whatever the cutoff was and identical
// to the index-quickselect reference the property tests pin against.
//
// topKLess is a total order only without NaNs (±Inf compare like any
// other magnitude). The gather compares magnitude *bits* as integers,
// under which a NaN exceeds every cutoff, so a NaN anywhere in the
// vector is always among the candidates; the encoder finds it there
// and falls back to emitReference, the original index-quickselect
// path, which never panics on any input.
//
// Nothing here is sharded over the tensor worker pool. An earlier
// version fanned every pass out; on the vectors this repository
// encodes (≤ 65k elements) the hand-offs cost several times the work
// they split, on cores the training steps already use (§2.3 has the
// measurements and what would have to change to revisit this).

import (
	"encoding/binary"
	"math"
	"sort"
	"sync"
)

// topkScratch is the per-encode state: the gathered candidates. A delta
// stream keeps its own in its streamSel; the stateless codec borrows one
// from topkPool, which a collection may empty between encodes.
type topkScratch struct {
	idx []int32   // candidate indices, ascending
	mag []float64 // their magnitudes; permuted by the selection
	all []int32   // 0, 1, 2, …: the candidates when there is no cutoff
}

var topkPool = sync.Pool{New: func() any { return new(topkScratch) }}

// everything returns the candidate list of a gather without a cutoff:
// all n indices.
func (sc *topkScratch) everything(n int) []int32 {
	for i := len(sc.all); i < n; i++ {
		sc.all = append(sc.all, int32(i))
	}
	return sc.all[:n]
}

// streamSel is what a delta stream carries from one frame's selection
// to the next. It changes the work done to find a payload, never its
// bytes.
type streamSel struct {
	// lastT is the previous frame's threshold. The zero value gathers
	// every non-zero coordinate, which is right for a first sparse
	// frame; −1, left by a frame that held a NaN, gathers everything.
	lastT float64
	// Work counters for the in-package work-bound test: sparse frames
	// encoded, refills among them, and candidates selected among.
	frames, refills, cands int
	// sc is the stream's candidate scratch, sized by its first sparse
	// frame and kept.
	sc topkScratch
}

// scratch returns the stream's own candidate scratch or, for the
// stateless codec (a nil stream), one from topkPool; release hands the
// latter back. Both stay out of line: inlined, their branches cost
// encodeTopK's loops their registers (the gather pass spilled its index
// and cursor and ran about 1.2× slower).
//
//go:noinline
func (s *streamSel) scratch() *topkScratch {
	if s == nil {
		return topkPool.Get().(*topkScratch)
	}
	return &s.sc
}

//go:noinline
func (s *streamSel) release(sc *topkScratch) {
	if s == nil {
		topkPool.Put(sc)
	}
}

// gatherDelta fills src[i] = x[i] − ref[i] and compacts into idx, in
// ascending order, the indices whose magnitude exceeds cutoff ≥ 0; it
// returns their count. Magnitudes are compared as integers on their
// bits — the float order on non-NaN magnitudes, with every NaN above
// all of them — and each index is stored unconditionally while the
// cursor advances by the comparison's sign bit, so the loop has no
// data-dependent branch to mispredict. idx must hold len(src) entries.
func gatherDelta(idx []int32, src, x, ref []float64, cutoff float64) int {
	n, cut := len(src), int64(math.Float64bits(cutoff))
	idx, x, ref = idx[:n], x[:n], ref[:n]
	m := 0
	for i := range src {
		d := x[i] - ref[i]
		src[i] = d
		idx[m] = int32(i)
		m += int(uint64(cut-int64(math.Float64bits(d)&^(1<<63))) >> 63)
	}
	return m
}

// encodeTopK appends the canonical TopK payload (header, then pairs in
// ascending index order) for src to dst, keeping the k coordinates
// that come first under (|value| desc, index asc). When x and ref are
// non-nil it first computes src[i] = x[i] − ref[i] — src then aliases
// the caller's delta scratch and is overwritten. sel, which goes with
// x and ref, is the stream's selection state: its threshold narrows the
// gather and is replaced by this frame's.
func encodeTopK(dst []byte, src []float64, k int, x, ref []float64, sel *streamSel) []byte {
	n := len(src)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(k))
	if k <= 0 {
		return dst
	}
	dst, out := extend(dst, 8*k)
	hinted := k < n && sel != nil && sel.lastT >= 0
	if x != nil && !hinted {
		for i := range src {
			src[i] = x[i] - ref[i]
		}
	}
	if k >= n {
		// Every coordinate survives: nothing to select.
		for i, v := range src {
			putPair(out[8*i:], i, v)
		}
		return dst
	}
	sc := sel.scratch()
	if cap(sc.idx) < n {
		sc.idx, sc.mag = make([]int32, n), make([]float64, n)
	}
	idx := sc.everything(n)
	if hinted {
		if m := gatherDelta(sc.idx, src, x, ref, 0.9*sel.lastT); m >= k {
			idx = sc.idx[:m]
		} else {
			// The threshold fell by more than the margin: a refill.
			sel.refills++
		}
	}
	mag := sc.mag[:len(idx)]
	nan := false
	for j, i := range idx {
		a := math.Abs(src[i])
		mag[j] = a
		nan = nan || math.IsNaN(a)
	}
	T := -1.0 // after a NaN, the next frame gathers everything
	if nan {
		emitReference(out, src, k)
	} else {
		var g int
		T, g = candThreshold(mag, k)
		emitCand(out, src, idx, T, k-g)
	}
	if sel != nil {
		sel.lastT = T
		sel.frames++
		sel.cands += len(idx)
	}
	sel.release(sc)
	return dst
}

// candThreshold extracts the selection threshold from a candidate
// multiset known to contain the global top-k magnitudes: T is the kth
// largest candidate and g the count above it (equal to the global
// count above T).
func candThreshold(cand []float64, k int) (T float64, g int) {
	quickselectDesc(cand, k)
	T = cand[0]
	for _, v := range cand[1:k] {
		if v < T {
			T = v
		}
	}
	for _, v := range cand[:k] {
		if v > T {
			g++
		}
	}
	return T, g
}

// emitCand fills out, the payload's pairs region, from the candidates:
// everything above T plus the first ties at T, in index order. idx is
// ascending, so scanning it keeps exactly what a scan of the whole
// vector would, while touching only the gathered coordinates — and it
// stops at the kth pair, which a frame of ties reaches long before the
// last candidate. candThreshold has permuted the magnitudes, so they
// are re-derived from src.
func emitCand(out []byte, src []float64, idx []int32, T float64, ties int) {
	for _, i := range idx {
		if len(out) == 0 {
			return
		}
		v := src[i]
		a := math.Abs(v)
		if a > T {
			// keep
		} else if a == T && ties > 0 {
			ties--
		} else {
			continue
		}
		putPair(out, int(i), v)
		out = out[8:]
	}
}

// putPair writes one (uint32 index, float32 value) pair.
func putPair(out []byte, i int, v float64) {
	binary.LittleEndian.PutUint32(out, uint32(i))
	binary.LittleEndian.PutUint32(out[4:], math.Float32bits(float32(v)))
}

// emitReference writes the pairs region via the original index
// quickselect — kept both as the specification oracle of the property
// tests and as the fallback for vectors holding a NaN, where it
// reproduces the pre-threshold encoder's bytes exactly.
func emitReference(out []byte, src []float64, k int) {
	n := len(src)
	ip := idxPool.Get().(*[]int)
	if cap(*ip) < n {
		*ip = make([]int, n)
	}
	idx := (*ip)[:n]
	for i := range idx {
		idx[i] = i
	}
	selectTopK(idx, src, k)
	kept := idx[:k]
	sort.Ints(kept)
	for p, i := range kept {
		putPair(out[8*p:], i, src[i])
	}
	idxPool.Put(ip)
}

// quickselectDesc partitions v so v[:k] holds a k-largest multiset of
// its values, via iterative median-of-three quickselect with a
// *three-way* partition and an insertion-sort base case. The
// three-way split matters: gradient deltas are tie-heavy (converged
// coordinates are exactly zero), and a binary partition degenerates to
// O(n²) on duplicate keys, while grouping the ==pivot run finishes a
// tied range in one pass. Direct float compares make it several times
// cheaper than the index-indirect form it replaces.
func quickselectDesc(v []float64, k int) {
	if k >= len(v) {
		return
	}
	lo, hi := 0, len(v)
	for hi-lo > 12 {
		mid := lo + (hi-lo)/2
		a, b, c := v[lo], v[mid], v[hi-1]
		pivot := b
		switch {
		case (a > b) == (b > c):
			// b is the median
		case (a > c) == (c > b):
			pivot = c
		default:
			pivot = a
		}
		// Dutch-flag partition: [lo,lt) > pivot, [lt,i) == pivot,
		// [gt,hi) < pivot.
		lt, gt, i := lo, hi, lo
		for i < gt {
			switch x := v[i]; {
			case x > pivot:
				v[i], v[lt] = v[lt], v[i]
				lt++
				i++
			case x < pivot:
				gt--
				v[i], v[gt] = v[gt], v[i]
			default:
				i++
			}
		}
		switch {
		case k <= lt:
			hi = lt
		case k <= gt:
			// The boundary falls inside the ==pivot run: v[:k] is all
			// the >pivot values plus k−lt copies of the pivot — a
			// k-largest multiset already.
			return
		default:
			lo = gt
		}
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && v[j] > v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
