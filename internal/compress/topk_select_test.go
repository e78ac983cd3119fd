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
// desc, index asc), emit the first k indices in ascending order. Every
// payload the threshold path produces must match it byte for byte.
func refEncodeTopK(src []float64, k int) []byte {
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
		if len(got) != 8+8*k {
			t.Fatalf("n=%d: payload %d bytes, want %d", n, len(got), 8+8*k)
		}
		// The fallback is the old encoder verbatim: emitReference into a
		// pre-sized buffer must agree with it.
		want := make([]byte, 8*k)
		emitReference(want, src, k)
		if !bytes.Equal(got[8:], want) {
			t.Fatalf("n=%d: non-finite payload does not match reference path", n)
		}
	}
}

// TestQuickselectDescTopKMultiset pins the value quickselect: the
// front k elements must be a k-largest multiset for adversarial
// duplicate-heavy inputs.
func TestQuickselectDescTopKMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(300)
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(rng.Intn(6)) // heavy ties
		}
		k := 1 + rng.Intn(n)
		sorted := append([]float64(nil), v...)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		quickselectDesc(v, k)
		got := append([]float64(nil), v[:k]...)
		sort.Sort(sort.Reverse(sort.Float64Slice(got)))
		for i := 0; i < k; i++ {
			if got[i] != sorted[i] {
				t.Fatalf("trial %d n=%d k=%d: front-k multiset wrong at %d: %g vs %g", trial, n, k, i, got[i], sorted[i])
			}
		}
	}
}
