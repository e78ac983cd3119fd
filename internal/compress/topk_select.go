package compress

// topk_select.go — the threshold selection behind the TopK delta stream
// (DESIGN.md §2.3). The original encoder built an explicit index
// permutation, quickselected it with indirect compares, and sorted the
// survivors; this one selects by *value threshold* among a gathered
// candidate set, in three steps on the calling goroutine:
//
//	gather  the candidates are the indices whose magnitude exceeds a
//	        cutoff, in ascending order. A stream that has a threshold
//	        from its previous frame cuts at 0.9 × it: the kth magnitude
//	        drifts slowly from frame to frame, so about 1.5·k of the n
//	        coordinates clear the cutoff, and one pass computes
//	        src[i] = x[i] − ref[i] and compacts their indices. Without
//	        a cutoff every index is a candidate and there is nothing to
//	        compact: the first sparse frame after a NaN threshold, and a
//	        refill — fewer than k candidates cleared the cutoff, so the
//	        threshold fell by more than the margin.
//	select  the threshold T — the kth largest magnitude — is the kth
//	        largest candidate: at least k magnitudes exceed the cutoff,
//	        so T does, and every magnitude ≥ T is a candidate. A radix
//	        select finds it on the candidates' magnitude bits: a
//	        branch-free histogram of the 8 bits below their common
//	        prefix per round, only the bucket holding T carried into the
//	        next (candThreshold).
//	emit    one scan of the candidate indices compacts everything above
//	        T plus the lowest-indexed ties at T, already in ascending
//	        index order, each index stored unconditionally and kept by
//	        advancing the cursor; then the frame's base exponent and
//	        their pairs are written (compress.go has the layout).
//
// Every step ranks a magnitude by its bits as an unsigned integer: the
// float order on non-NaN magnitudes (±Inf included), with every NaN
// above +Inf and NaNs ordered by payload. Selection follows the strict
// total order (magnitude bits descending, index ascending), under which
// the top-k *set* is unique — all magnitudes above T, plus the
// lowest-indexed ties at T — so the payload is the same whatever the
// cutoff was and identical to a full sort's, the specification the
// property tests pin against. No step compares floats, so a NaN needs
// no path of its own; only the hint does: a NaN threshold fails
// lastT ≥ 0, and the frame after it gathers everything.
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
)

// topkScratch is a stream's selection scratch: the gathered candidates.
type topkScratch struct {
	idx []int32  // candidate indices, ascending
	mag []uint64 // their magnitudes' bits; permuted by the selection
	all []int32  // 0, 1, 2, …: the candidates when there is no cutoff
}

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
	// frame; a NaN, left by a frame whose threshold was one, fails
	// lastT ≥ 0 and gathers everything.
	lastT float64
	// Work counters for the in-package work-bound test: sparse frames
	// encoded, refills among them, and candidates selected among.
	frames, refills, cands int
	// sc is the stream's candidate scratch, sized by its first sparse
	// frame and kept.
	sc topkScratch
}

// gatherDelta fills src[i] = x[i] − ref[i] and compacts into idx, in
// ascending order, the indices whose magnitude exceeds cutoff ≥ 0; it
// returns their count. Magnitudes are compared as integers on their
// bits — the float order on non-NaN magnitudes, with every NaN above
// all of them — and each index is stored unconditionally while the
// cursor advances by the comparison's sign bit, so the loop has no
// data-dependent branch to mispredict. idx must hold len(src) entries.
// It stays out of line: inlined into encodeTopK, whose other loops keep
// more values live, the loop spilled its index and cursor on every
// element and ran about 1.3× slower.
//
//go:noinline
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
// that come first under (magnitude bits desc, index asc). When x and
// ref are non-nil it first computes src[i] = x[i] − ref[i] — src then
// aliases the caller's delta scratch and is overwritten. sel is the
// stream's selection state: its threshold narrows the gather and is
// replaced by this frame's.
func encodeTopK(dst []byte, src []float64, k int, x, ref []float64, sel *streamSel) []byte {
	n := len(src)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(k))
	if k <= 0 {
		return append(dst, 0) // an empty frame's base
	}
	start := len(dst)
	dst, out := extend(dst, 1+pairsCap(n, k))
	hinted := k < n && sel.lastT >= 0
	if x != nil && !hinted {
		for i := range src {
			src[i] = x[i] - ref[i]
		}
	}
	sc := &sel.sc
	if k >= n {
		// Every coordinate survives: nothing to select, every gap 0.
		all := sc.everything(n)
		return dst[:start+putPairs(out, src, all, frameBase(src, all))]
	}
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
	lo, hi := magnitudes(mag, idx, src)
	tb, g := candThreshold(mag, k, lo, hi)
	kept := keepCand(sc.idx[:k], idx, src, tb, k-g)
	// Every kept magnitude is at least T, one is T, and rounding to
	// float32 keeps the order of magnitudes (a NaN's exponent field is
	// the largest): T's exponent is the base, unless it is 0.
	base := uint8(math.Float32bits(float32(math.Float64frombits(tb))) >> 23)
	if base == 0 {
		base = frameBase(src, kept)
	}
	p := putPairs(out, src, kept, base)
	sel.lastT = math.Float64frombits(tb)
	sel.frames++
	sel.cands += len(idx)
	return dst[:start+p]
}

// magnitudes fills mag[j] with the magnitude bits of src[idx[j]] and
// returns the smallest and largest. Out of line for the reason
// gatherDelta is.
//
//go:noinline
func magnitudes(mag []uint64, idx []int32, src []float64) (lo, hi uint64) {
	lo = math.MaxUint64
	for j, i := range idx {
		b := math.Float64bits(src[i]) &^ (1 << 63)
		mag[j] = b
		lo, hi = min(lo, b), max(hi, b)
	}
	return lo, hi
}

// pairsCap bounds the pairs region of k pairs out of n coordinates.
// A pair takes minPairLen bytes, one more when its exponent escapes,
// and its gap extension, which is never longer than one byte per 64
// indices the gap spans: all the extensions of a frame take at most
// n>>6 bytes.
func pairsCap(n, k int) int {
	return (minPairLen+1)*k + n>>6
}

// candThreshold selects the threshold among the candidates' magnitude
// bits, which it permutes and compares as integers: T is the kth
// largest candidate and g the count above it (equal to the global count
// above T), for 1 ≤ k ≤ len(mag). lo and hi are the smallest and
// largest of mag.
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

// frameBase returns the base exponent of the kept indices' values in
// src: the smallest non-zero float32 exponent field among them, or 0
// when all are zero. The −1 wraps a zero field past every other, and
// the +1 wraps an all-zero minimum back to 0.
func frameBase(src []float64, kept []int32) uint8 {
	m := uint32(math.MaxUint32)
	for _, i := range kept {
		m = min(m, math.Float32bits(float32(src[i]))>>23&0xff-1)
	}
	return uint8(m + 1)
}

// putPairs writes base, then the pairs of the kept indices, ascending,
// and of their values in src, to out, and returns the length in bytes.
func putPairs(out []byte, src []float64, kept []int32, base uint8) int {
	out[0] = base
	b := uint32(base) << 23
	p, last := 1, -1
	for _, i := range kept {
		f, gap := math.Float32bits(float32(src[i])), uint32(int(i)-last-1)
		last = int(i)
		if f>>23&0xff-uint32(base) > maxNarrow || gap >= wideGap {
			p += putWide(out[p:], f, gap, base)
			continue
		}
		binary.LittleEndian.PutUint32(out[p:], f-b|gap<<gapShift)
		p += minPairLen
	}
	return p
}

// putWide writes a pair that needs an escape at the start of out — the
// word, the exponent byte when the exponent is not within maxNarrow
// above base, then the minimal varint of gap − 63 when the gap does not
// fit the word — and returns its length.
func putWide(out []byte, f, gap uint32, base uint8) int {
	w, p := f-uint32(base)<<23, minPairLen
	if e := f >> 23 & 0xff; e-uint32(base) > maxNarrow {
		w = f&^expField | wideOff<<23
		out[p] = byte(e)
		p++
	}
	if gap >= wideGap {
		w |= wideGap << gapShift
		p += binary.PutUvarint(out[p:], uint64(gap-wideGap))
	} else {
		w |= gap << gapShift
	}
	binary.LittleEndian.PutUint32(out, w)
	return p
}
