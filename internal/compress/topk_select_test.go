package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refEncodeTopK is the specification encoder: full sort by (|value|
// desc, index asc), emit the first k indices in ascending order, then
// gap-code them. Every payload the threshold path produces must match
// it byte for byte.
func refEncodeTopK(src []float64, k int) []byte {
	return gapCode(refEncodeV3(src, k))
}

// refEncodeV3 is the specification selection in the retired v3 layout,
// which carried each kept coordinate as a (uint32 index, float32 value)
// pair. It survives here only as the reference the gap-coded layout is
// pinned against: same indices, same float32 bits.
func refEncodeV3(src []float64, k int) []byte {
	n := len(src)
	dst := binary.LittleEndian.AppendUint32(nil, uint32(n))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(k))
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return topKLess(src, idx[a], idx[b]) })
	kept := append([]int(nil), idx[:k]...)
	sort.Ints(kept)
	for _, i := range kept {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(i))
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(src[i])))
	}
	return dst
}

// gapCode rewrites a v3 payload in the current layout: each index
// becomes the minimal varint of its distance from the previous one,
// less one, which the standard library's AppendUvarint writes.
func gapCode(v3 []byte) []byte {
	dst := append([]byte(nil), v3[:8]...)
	last := -1
	for p := v3[8:]; len(p) >= 8; p = p[8:] {
		i := int(binary.LittleEndian.Uint32(p))
		dst = binary.AppendUvarint(dst, uint64(i-last-1))
		dst = append(dst, p[4:8]...)
		last = i
	}
	return dst
}

// decodeV3 is the reference decode of a v3 payload: its pairs' float32
// values at their indices, zero elsewhere.
func decodeV3(v3 []byte) []float64 {
	out := make([]float64, binary.LittleEndian.Uint32(v3))
	for p := v3[8:]; len(p) >= 8; p = p[8:] {
		out[binary.LittleEndian.Uint32(p)] = float64(math.Float32frombits(binary.LittleEndian.Uint32(p[4:])))
	}
	return out
}

// v3Of is gapCode's inverse: the v3 payload carrying a well-formed
// payload's (index, float32) pairs, read with the standard library's
// Uvarint.
func v3Of(payload []byte) []byte {
	dst := append([]byte(nil), payload[:8]...)
	last := -1
	for p := payload[8:]; len(p) > 0; {
		gap, w := binary.Uvarint(p)
		last += int(gap) + 1
		dst = binary.LittleEndian.AppendUint32(dst, uint32(last))
		dst = append(dst, p[w:w+4]...)
		p = p[w+4:]
	}
	return dst
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
// threshold encoder runs on the caller's goroutine and its payload is a
// function of the vector alone — the sort-reference bytes, across keep
// ratios, shapes (including n ≤ 1), heavy-tie vectors, and the all-zero
// gradient.
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
				c := NewTopK(ratio).(topKCodec)
				want := refEncodeTopK(src, c.KeepCount(n))
				if got := c.Compress(nil, src); !bytes.Equal(got, want) {
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

// TestTopKThresholdFallbackNonFinite feeds NaN and Inf magnitudes —
// a NaN defeats value-threshold comparisons — and checks the encoder
// falls back to the index-quickselect reference bytes instead of
// panicking or emitting a short payload.
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
		c := NewTopK(0.3).(topKCodec)
		k := c.KeepCount(n)
		got := c.Compress(nil, src)
		// The fallback is the old encoder verbatim: emitReference into a
		// pre-sized buffer must agree with it.
		want := make([]byte, pairsCap(n, k))
		want = want[:emitReference(want, src, k)]
		if !bytes.Equal(got[8:], want) {
			t.Fatalf("n=%d: non-finite payload does not match reference path", n)
		}
		// And it is a whole payload: k pairs, every byte consumed.
		if _, err := Decode(TopK, got); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
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
