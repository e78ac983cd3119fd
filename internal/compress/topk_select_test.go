package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// infBits is the bit pattern of +Inf: a magnitude's bits above it are a
// NaN's.
const infBits = 0x7ff0000000000000

// magBits is the rank of src[i] in the selection: its magnitude's bits.
func magBits(src []float64, i int) uint64 { return math.Float64bits(src[i]) &^ (1 << 63) }

// bySpec returns src's indices sorted into the specification's order:
// magnitude bits descending, index ascending. On non-NaN values that is
// |value| descending; every NaN ranks above +Inf.
func bySpec(src []float64) []int {
	idx := make([]int, len(src))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ma, mb := magBits(src, idx[a]), magBits(src, idx[b])
		if ma != mb {
			return ma > mb
		}
		return idx[a] < idx[b]
	})
	return idx
}

// refEncodeTopK is the specification encoder: the first k indices of
// bySpec in ascending order, in the current layout. Every payload the
// threshold path produces must match it byte for byte.
func refEncodeTopK(src []float64, k int) []byte {
	return gapCode(refEncodeV3(src, k))
}

// refEncodeV3 is the specification selection in the retired v3 layout,
// which carried each kept coordinate as a (uint32 index, float32 value)
// pair. It survives here only as the reference the current layout is
// pinned against: same indices, same float32 bits.
func refEncodeV3(src []float64, k int) []byte {
	n := len(src)
	dst := binary.LittleEndian.AppendUint32(nil, uint32(n))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(k))
	kept := append([]int(nil), bySpec(src)[:k]...)
	sort.Ints(kept)
	for _, i := range kept {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(i))
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(src[i])))
	}
	return dst
}

// gapCode rewrites a v3 payload in the current layout, by the
// layout's definition rather than the encoder's code: base is the
// smallest non-zero exponent field among the values, and each pair is
// written by appendPair with the offset field canonOff gives.
func gapCode(v3 []byte) []byte {
	n, ps := pairsV3(v3)
	return frameOf(n, len(ps), refBase(ps), ps)
}

// refPair is a kept coordinate: its index and its value's float32 bits.
type refPair struct {
	i int
	f uint32
}

// pairsV3 reads a v3 payload's dimension and pairs.
func pairsV3(v3 []byte) (n int, ps []refPair) {
	for p := v3[8:]; len(p) >= 8; p = p[8:] {
		ps = append(ps, refPair{int(binary.LittleEndian.Uint32(p)), binary.LittleEndian.Uint32(p[4:])})
	}
	return int(binary.LittleEndian.Uint32(v3)), ps
}

// expOf is the exponent field of float32 bits f.
func expOf(f uint32) int { return int(f >> 23 & 0xff) }

// refBase is the base exponent of ps: the smallest non-zero exponent
// field, or 0 when there is none.
func refBase(ps []refPair) int {
	base := 0
	for _, p := range ps {
		if e := expOf(p.f); e != 0 && (base == 0 || e < base) {
			base = e
		}
	}
	return base
}

// canonOff is the offset field a pair of bits f takes under base: the
// exponent's distance above base when that is at most two, else the
// escape 3.
func canonOff(base int, f uint32) int {
	if off := expOf(f) - base; off >= 0 && off <= 2 {
		return off
	}
	return 3
}

// appendPair appends one pair with the given offset field and gap:
// offset 3 appends the exponent byte after the word, and a gap of 63
// or more puts 63 in the word and appends the varint of gap − 63.
func appendPair(dst []byte, f uint32, off, gap int) []byte {
	g := min(gap, 63)
	dst = binary.LittleEndian.AppendUint32(dst, f&0x807fffff|uint32(off)<<23|uint32(g)<<25)
	if off == 3 {
		dst = append(dst, byte(expOf(f)))
	}
	if g == 63 {
		dst = binary.AppendUvarint(dst, uint64(gap-63))
	}
	return dst
}

// topkHeader is a payload's header: n, k and base.
func topkHeader(n, k, base int) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(n))
	b = binary.LittleEndian.AppendUint32(b, uint32(k))
	return append(b, byte(base))
}

// frameOf writes the payload of ps under the given header, each pair
// with its canonical offset field under base.
func frameOf(n, k, base int, ps []refPair) []byte {
	b, last := topkHeader(n, k, base), -1
	for _, p := range ps {
		b = appendPair(b, p.f, canonOff(base, p.f), p.i-last-1)
		last = p.i
	}
	return b
}

// decodeV3 is the reference decode of a v3 payload into a zero
// replica: its pairs' float32 values added at their indices, zero
// elsewhere.
func decodeV3(v3 []byte) []float64 {
	out := make([]float64, binary.LittleEndian.Uint32(v3))
	for p := v3[8:]; len(p) >= 8; p = p[8:] {
		out[binary.LittleEndian.Uint32(p)] += float64(math.Float32frombits(binary.LittleEndian.Uint32(p[4:])))
	}
	return out
}

// firstSparse returns the first sparse frame of a stream at ratio whose
// committed warm start was the zero vector: the delta is src itself, so
// the frame is the TopK selection of src. The stream is returned too,
// with that frame staged.
func firstSparse(ratio float64, src []float64) ([]byte, *DeltaEncoder) {
	enc := NewDeltaEncoder(ratio)
	enc.Compress(nil, make([]float64, len(src)))
	enc.Commit()
	return enc.Compress(nil, src), enc
}

// foldFrame decodes payload with a DeltaDecoder whose replica is the
// zero vector of the payload's dimension, when its header admits one:
// the frame's pairs, zero elsewhere.
func foldFrame(payload []byte) ([]float64, error) {
	var dec DeltaDecoder
	if n, _, _, err := parseTopKHeader(payload); err == nil {
		dec.ref = make([]float64, n)
	}
	return dec.Decode(payload)
}

// pairsOf is gapCode's inverse, written as plainly: a well-formed
// payload's dimension, base and (index, float32 bits) pairs, the gap
// extensions read with the standard library's Uvarint.
func pairsOf(payload []byte) (n, base int, ps []refPair) {
	n, base = int(binary.LittleEndian.Uint32(payload)), int(payload[8])
	last := -1
	for p := payload[9:]; len(p) > 0; {
		w := binary.LittleEndian.Uint32(p)
		p = p[4:]
		e := base + int(w>>23&3)
		if w>>23&3 == 3 {
			e, p = int(p[0]), p[1:]
		}
		gap := int(w >> 25 & 63)
		if gap == 63 {
			x, l := binary.Uvarint(p)
			gap, p = gap+int(x), p[l:]
		}
		last += gap + 1
		ps = append(ps, refPair{last, w&0x807fffff | uint32(e)<<23})
	}
	return n, base, ps
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestTopKBytesPoolWidthInvariant is the determinism pin: the
// threshold encoder runs on the caller's goroutine and a stream's first
// sparse frame is a function of the delta alone — the sort-reference
// bytes, across keep ratios, shapes (including n ≤ 1), heavy-tie
// vectors, and the all-zero gradient.
func TestTopKBytesPoolWidthInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	shapes := []int{0, 1, 2, 7, 100, 127, 128, 129, 500, 2048, 4097}
	ratios := []float64{0.01, 0.1, 0.5, 1.0}
	for _, n := range shapes {
		for _, ratio := range ratios {
			for _, fill := range []string{"normal", "ties", "zero"} {
				src := make([]float64, n)
				for i := range src {
					switch fill {
					case "normal":
						src[i] = rng.NormFloat64() * float64(int(1)<<uint(rng.Intn(12)))
					case "ties":
						// Few distinct magnitudes: the threshold tie
						// budget does real work.
						src[i] = float64(rng.Intn(3)) * 0.5
						if rng.Intn(2) == 0 {
							src[i] = -src[i]
						}
					case "zero":
						// all-zero gradient: every coordinate ties at 0
					}
				}
				got, enc := firstSparse(ratio, src)
				if want := refEncodeTopK(src, enc.keepCount(n)); !bytes.Equal(got, want) {
					t.Fatalf("n=%d ratio=%g fill=%s: payload differs from sort reference (%d vs %d bytes)",
						n, ratio, fill, len(got), len(want))
				}
			}
		}
	}
}

// TestDeltaEncoderBytesPoolWidthInvariant runs the fused delta path
// (the gather pass computes x − ref) through a short stream against the
// specification; ratio 1.0 exercises the fused k = n path: dense frames
// that still flow through the delta fill.
func TestDeltaEncoderBytesPoolWidthInvariant(t *testing.T) {
	for _, ratio := range []float64{0.1, 1.0} {
		runDeltaStream(t, 1000, ratio, 7, 6, nil)
	}
}

// TestTopKThresholdFallbackNonFinite feeds NaN and ±Inf magnitudes to
// the threshold path, which ranks them by their bits like any other:
// every NaN above +Inf, ties broken by index. A frame whose threshold is
// a NaN leaves no usable hint, so the next frame gathers every
// coordinate, and does not count that as a refill.
func TestTopKThresholdFallbackNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{10, 200, 1024} {
		src := make([]float64, n)
		for i := range src {
			switch rng.Intn(5) {
			case 0:
				src[i] = math.NaN()
			case 1:
				src[i] = math.Inf(1 - 2*rng.Intn(2))
			default:
				src[i] = rng.NormFloat64()
			}
		}
		got, enc := firstSparse(0.3, src)
		if want := refEncodeTopK(src, enc.keepCount(n)); !bytes.Equal(got, want) {
			t.Fatalf("n=%d: non-finite payload differs from the sort reference", n)
		}
		// And it is a whole payload: k pairs, every byte consumed.
		if _, err := foldFrame(got); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}

	// Three infinities below two NaNs, k = 3: both NaNs and the first
	// infinity by index, not the three infinities that come first.
	nan, inf := math.NaN(), math.Inf(1)
	got, _ := firstSparse(3.0/8, []float64{inf, -inf, inf, nan, nan, 1, 2, 3})
	if want := gapCode(v3Pairs(8, []int{0, 3, 4}, []float64{inf, nan, nan})); !bytes.Equal(got, want) {
		t.Fatalf("kept % x, want % x (coordinates 0, 3 and 4)", got, want)
	}

	// k = 10 of 100 coordinates, 20 of them NaN: the threshold is a NaN.
	x := make([]float64, 100)
	for i := range x {
		x[i] = rng.NormFloat64()
		if i%5 == 0 {
			x[i] = nan
		}
	}
	_, enc := firstSparse(0.1, x)
	if !math.IsNaN(enc.sel.lastT) {
		t.Fatalf("threshold %g after a frame whose kth magnitude is a NaN", enc.sel.lastT)
	}
	before := enc.sel
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got = enc.Compress(nil, x)
	if want := refEncodeTopK(x, 10); !bytes.Equal(got, want) {
		t.Fatal("the frame after a NaN threshold differs from the sort reference")
	}
	if c, r := enc.sel.cands-before.cands, enc.sel.refills-before.refills; c != len(x) || r != 0 {
		t.Fatalf("the frame after a NaN threshold selected among %d candidates with %d refills, want all %d and none", c, r, len(x))
	}
}

// v3Pairs returns the v3 payload of an n-vector keeping the given
// ascending indices with the given values.
func v3Pairs(n int, idx []int, vals []float64) []byte {
	dst := binary.LittleEndian.AppendUint32(nil, uint32(n))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(idx)))
	for p, i := range idx {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(i))
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(vals[p])))
	}
	return dst
}

// sortThreshold is candThreshold's specification: sort the magnitude
// bits descending, take the kth, count the ones above it.
func sortThreshold(mag []uint64, k int) (T uint64, g int) {
	s := append([]uint64(nil), mag...)
	sort.Slice(s, func(a, b int) bool { return s[a] > s[b] })
	T = s[k-1]
	for _, b := range s {
		if b > T {
			g++
		}
	}
	return T, g
}

// checkThreshold runs candThreshold on a copy of mag and compares it
// with the sort.
func checkThreshold(t *testing.T, name string, mag []uint64, k int) {
	t.Helper()
	lo, hi := mag[0], mag[0]
	for _, b := range mag {
		lo, hi = min(lo, b), max(hi, b)
	}
	wantT, wantG := sortThreshold(mag, k)
	T, g := candThreshold(append([]uint64(nil), mag...), k, lo, hi)
	if T != wantT || g != wantG {
		t.Fatalf("%s m=%d k=%d: T=%#x with %d above, want T=%#x with %d above", name, len(mag), k, T, g, wantT, wantG)
	}
}

// TestCandThresholdMatchesSort pins the radix select against a sort on
// the inputs that steer it: distinct magnitudes, all-equal and all-zero
// sets, heavy ties, subnormals below a few normals (the minimum's bucket
// holding members above the minimum), +Inf, and a ladder of magnitudes
// one ulp apart at every bit position, which takes a round per digit. A
// candidate set of up to 64 is checked at every k, a larger one at 1,
// m/2 and m.
func TestCandThresholdMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	fills := []struct {
		name string
		mag  func(j, m int) float64
	}{
		{"distinct", func(int, int) float64 { return math.Abs(rng.NormFloat64()) * float64(int(1)<<rng.Intn(12)) }},
		{"equal", func(int, int) float64 { return 0.75 }},
		{"zero", func(int, int) float64 { return 0 }},
		{"ties", func(int, int) float64 { return float64(rng.Intn(3)) * 0.5 }},
		{"subnormal", func(j, m int) float64 {
			switch {
			case j%5 == 0:
				return float64(1 + rng.Intn(3)) // a few normals above
			case j%5 < 3:
				return math.Float64frombits(uint64(1 + rng.Intn(m)))
			}
			return 0
		}},
		{"inf", func(int, int) float64 {
			if rng.Intn(4) == 0 {
				return math.Inf(1)
			}
			return math.Abs(rng.NormFloat64())
		}},
	}
	for _, m := range []int{1, 13, 600, 4096} {
		for _, fill := range fills {
			mag := make([]uint64, m)
			for j := range mag {
				mag[j] = math.Float64bits(fill.mag(j, m))
			}
			ks := []int{1, max(1, m/2), m}
			if m <= 64 {
				ks = ks[:0]
				for k := 1; k <= m; k++ {
					ks = append(ks, k)
				}
			}
			for _, k := range ks {
				checkThreshold(t, fill.name, mag, k)
			}
		}
	}
	// The ladder: x, the magnitude one ulp above it, and x with each of
	// its other bits flipped in turn. Every pair shares a longer prefix
	// than the pair below it, so a k at x makes the select descend
	// through all eight digits.
	const x = 0x2aaaaaaaaaaaaaaa
	ladder := []uint64{x, x + 1}
	for b := 1; b < 63; b++ {
		ladder = append(ladder, x^1<<b)
	}
	rng.Shuffle(len(ladder), func(a, b int) { ladder[a], ladder[b] = ladder[b], ladder[a] })
	for k := 1; k <= len(ladder); k++ {
		checkThreshold(t, "ladder", ladder, k)
	}
}

// FuzzCandThreshold lets the fuzzer write the candidate set: each script
// byte is one magnitude, an offset of up to 31 ulps from one of eight
// bases (zero, subnormal, normal, near the largest finite, clamped at
// +Inf), so equal bytes are ties and neighbouring bytes are one ulp
// apart; k picks the rank.
func FuzzCandThreshold(f *testing.F) {
	f.Add(uint16(0), []byte{0, 1, 2, 3})
	f.Add(uint16(5), []byte{0xff, 0, 0, 0x20, 0x21, 0x40, 0x40, 0x40, 0xe0, 0x9f})
	f.Add(uint16(3), []byte{0x60, 0x61, 0x60, 0x62, 0x61, 0x7f})
	bases := [8]uint64{0, 1 << 40, 1 << 52, 0x3fe0000000000000, 0x3ff0000000000000,
		0x3ff0000000100000, 0x4330000000000000, infBits - 16}
	f.Fuzz(func(t *testing.T, k uint16, script []byte) {
		if len(script) == 0 {
			return
		}
		mag := make([]uint64, len(script))
		for j, c := range script {
			mag[j] = min(bases[c>>5]+uint64(c&31), infBits)
		}
		checkThreshold(t, "fuzz", mag, 1+int(k)%len(mag))
	})
}
