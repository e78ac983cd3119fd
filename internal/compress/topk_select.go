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
//	        so T does, and every magnitude ≥ T is a candidate. A radix
//	        select finds it on the candidates' magnitude bits, which
//	        order as the magnitudes do: a branch-free histogram of the
//	        8 bits below their common prefix per round, only the bucket
//	        holding T carried into the next (candThreshold).
//	emit    one scan of the candidate indices compacts everything above
//	        T plus the lowest-indexed ties at T, already in ascending
//	        index order, each index stored unconditionally and kept by
//	        advancing the cursor; then their (gap, float32 value) pairs
//	        are written.
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
	"math/bits"
	"sort"
	"sync"
)

// topkScratch is the per-encode state: the gathered candidates. A delta
// stream keeps its own in its streamSel; the stateless codec borrows one
// from topkPool, which a collection may empty between encodes.
type topkScratch struct {
	idx []int32  // candidate indices, ascending
	mag []uint64 // their magnitudes' bits; permuted by the selection
	all []int32  // 0, 1, 2, …: the candidates when there is no cutoff
}

// infBits is the bit pattern of +Inf: a magnitude's bits above it are a
// NaN's.
const infBits = 0x7ff0000000000000

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
	start := len(dst)
	dst, out := extend(dst, pairsCap(n, k))
	hinted := k < n && sel != nil && sel.lastT >= 0
	if x != nil && !hinted {
		for i := range src {
			src[i] = x[i] - ref[i]
		}
	}
	if k >= n {
		// Every coordinate survives: nothing to select, every gap 0.
		p := 0
		for _, v := range src {
			p += putPair(out[p:], 0, v)
		}
		return dst[:start+p]
	}
	sc := sel.scratch()
	if cap(sc.idx) < n {
		sc.idx, sc.mag = make([]int32, n), make([]uint64, n)
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
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for j, i := range idx {
		b := math.Float64bits(src[i]) &^ (1 << 63)
		mag[j] = b
		lo, hi = min(lo, b), max(hi, b)
	}
	T := -1.0 // after a NaN, the next frame gathers everything
	var p int
	if hi <= infBits {
		tb, g := candThreshold(mag, k, lo, hi)
		p = putPairs(out, src, keepCand(sc.idx[:k], idx, src, tb, k-g))
		T = math.Float64frombits(tb)
	} else {
		p = emitReference(out, src, k)
	}
	if sel != nil {
		sel.lastT = T
		sel.frames++
		sel.cands += len(idx)
	}
	sel.release(sc)
	return dst[:start+p]
}

// pairsCap bounds the pairs region of k pairs out of n coordinates,
// plus the slack putPair's wide store needs past the last pair. Every
// pair takes minPairLen bytes and one more per gap varint byte past the
// first; a gap of at least 2^(7j) spans that many indices of the n, so
// at most n>>(7j) gaps take a (j+1)th byte.
func pairsCap(n, k int) int {
	return minPairLen*k + n>>7 + n>>14 + n>>21 + n>>28 + 3
}

// candThreshold selects the threshold among the candidates' magnitude
// bits — non-negative and non-NaN, so their bit patterns order as their
// values do — which it permutes: T is the kth largest candidate and g
// the count above it (equal to the global count above T), for
// 1 ≤ k ≤ len(mag). lo and hi are the smallest and largest of mag.
//
// It is a radix select. Each round histograms the 8 bits just below the
// common prefix of lo and hi, finds the bucket holding the kth largest,
// counts every candidate in the buckets above it into g, and keeps only
// that bucket's members for the next round, whose prefix is longer by
// at least the digit: at most eight rounds, usually two. The histogram
// is branch-free and split four ways, element j counting into
// sub-histogram j mod 4, so a run of equal digits — the ties a settled
// delta stream is full of — makes four independent chains of
// increments, not one serialised on a single counter. When the target
// bucket is the minimum's and too few of its members exceed the
// minimum, T is the minimum and the select stops there: a frame of ties
// at zero costs one pass.
func candThreshold(mag []uint64, k int, lo, hi uint64) (T uint64, g int) {
	for lo != hi {
		shift := uint(max(0, 56-bits.LeadingZeros64(lo^hi)))
		var h [4][256]uint32
		eq := 0 // candidates equal to lo
		j := 0
		for ; j+4 <= len(mag); j += 4 {
			b0, b1, b2, b3 := mag[j], mag[j+1], mag[j+2], mag[j+3]
			h[0][uint8(b0>>shift)]++
			h[1][uint8(b1>>shift)]++
			h[2][uint8(b2>>shift)]++
			h[3][uint8(b3>>shift)]++
			eq += b2i(b0 == lo) + b2i(b1 == lo) + b2i(b2 == lo) + b2i(b3 == lo)
		}
		for ; j < len(mag); j++ {
			h[0][uint8(mag[j]>>shift)]++
			eq += b2i(mag[j] == lo)
		}
		// Walk down from the maximum's bucket; the minimum's bucket ends
		// the walk at the latest, because every candidate lies between.
		d := uint8(hi >> shift)
		c := 0
		for {
			c = int(h[0][d] + h[1][d] + h[2][d] + h[3][d])
			if c >= k {
				break
			}
			k -= c
			g += c
			d--
		}
		if d == uint8(lo>>shift) && c-eq < k {
			return lo, g + c - eq
		}
		m := 0
		for _, b := range mag {
			mag[m] = b
			m += b2i(uint8(b>>shift) == d)
		}
		mag = mag[:m]
		lo, hi = mag[0], mag[0]
		for _, b := range mag[1:] {
			lo, hi = min(lo, b), max(hi, b)
		}
	}
	return lo, g
}

// keepCand compacts into kept, of length k, the candidates that
// survive: everything whose magnitude bits exceed T plus the first
// ties at T, in index order. idx is ascending, so scanning it keeps
// exactly what a scan of the whole vector would, while touching only
// the gathered coordinates — and it stops at the kth, which a frame of
// ties reaches long before the last candidate. Each index is written at
// the cursor unconditionally and the cursor advances by the keep
// predicate, so the loop has no data-dependent branch; kept may alias
// idx, as the cursor never passes the scan. candThreshold has permuted
// the magnitudes, so they are re-derived from src.
func keepCand(kept, idx []int32, src []float64, T uint64, ties int) []int32 {
	m := 0
	for _, i := range idx {
		if m == len(kept) {
			break
		}
		a := math.Float64bits(src[i]) &^ (1 << 63)
		eq := b2i(a == T)
		kept[m] = i
		m += b2i(a > T) | eq&b2i(ties > 0)
		ties -= eq
	}
	return kept[:m]
}

// b2i is 1 for true and 0 for false; the compiler makes it a flag set,
// not a branch.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// putPairs writes the pairs of the kept indices, ascending, and of
// their values in src to out, and returns their length in bytes. Both
// selections emit through it: the threshold path's int32 candidates and
// the quickselect fallback's ints.
func putPairs[I int | int32](out []byte, src []float64, kept []I) int {
	p, last := 0, -1
	for _, i := range kept {
		p += putPair(out[p:], uint32(int(i)-last-1), src[i])
		last = int(i)
	}
	return p
}

// putPair writes one pair at the start of out — the minimal LEB128
// varint of gap, then v rounded to float32 — and returns its length,
// minPairLen to 9 bytes. A gap below 128 is one 8-byte store, so out
// must hold 8 bytes even where the pair takes 5 (pairsCap's slack).
func putPair(out []byte, gap uint32, v float64) int {
	f := math.Float32bits(float32(v))
	if gap < 0x80 {
		binary.LittleEndian.PutUint64(out, uint64(gap)|uint64(f)<<8)
		return minPairLen
	}
	w := 0
	for ; gap >= 0x80; gap >>= 7 {
		out[w] = byte(gap) | 0x80
		w++
	}
	out[w] = byte(gap)
	binary.LittleEndian.PutUint32(out[w+1:], f)
	return w + minPairLen
}

// emitReference writes the pairs region via the original index
// quickselect and returns its length — kept both as the specification
// oracle of the property tests and as the fallback for vectors holding
// a NaN, where it reproduces the pre-threshold encoder's selection
// exactly.
func emitReference(out []byte, src []float64, k int) int {
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
	p := putPairs(out, src, kept)
	idxPool.Put(ip)
	return p
}
