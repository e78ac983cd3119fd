package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// loopGather is Gather's reference: the Go loop, bounds checks and all.
func loopGather(dst, src []float64, idx []int32) {
	for i, k := range idx {
		dst[i] = src[k]
	}
}

// gatherSrc is a source with every special value a move must carry
// unchanged: ±0, ±Inf, NaN payloads, subnormals.
func gatherSrc(r *rand.Rand, n int) []float64 {
	src := make([]float64, n)
	fillRand(r, src)
	specials := []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8_0000_dead_beef), math.Float64frombits(1)}
	for i, v := range specials {
		src[(i*7)%n] = v
	}
	return src
}

// TestGatherMatchesLoop pins Gather's bits to the Go loop at every
// length through two vector blocks and a tail, on every kernel.
func TestGatherMatchesLoop(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(45))
		src := gatherSrc(r, 37)
		for n := 0; n <= 17; n++ {
			idx := make([]int32, n)
			for i := range idx {
				idx[i] = int32(r.Intn(len(src)))
			}
			got, want := make([]float64, n), make([]float64, n)
			loopGather(want, src, idx)
			Gather(got, src, idx)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d: cell %d = %#x, loop %#x", n, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	})
}

// TestGatherOutOfRangePanics puts an out-of-range index — len(src), −1
// and MaxInt32 — in every lane of two vector blocks and a tail: Gather
// must panic as the Go loop does, with every cell in front of the bad
// one written and none after it.
func TestGatherOutOfRangePanics(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(46))
		src := gatherSrc(r, 29)
		const n = 19
		want := make([]float64, n)
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(r.Intn(len(src)))
		}
		loopGather(want, src, idx)
		for _, bad := range []int32{int32(len(src)), -1, math.MaxInt32} {
			for pos := 0; pos < n; pos++ {
				name := fmt.Sprintf("idx[%d]=%d", pos, bad)
				bidx := append([]int32(nil), idx...)
				bidx[pos] = bad
				got := make([]float64, n)
				Fill(got, 42)
				func() {
					defer func() {
						if _, ok := recover().(runtime.Error); !ok {
							t.Fatalf("%s: no index-out-of-range panic", name)
						}
					}()
					Gather(got, src, bidx)
				}()
				for i := range got {
					w := want[i]
					if i >= pos {
						w = 42
					}
					if math.Float64bits(got[i]) != math.Float64bits(w) {
						t.Fatalf("%s: cell %d = %g, want %g", name, i, got[i], w)
					}
				}
			}
		}
	})
}

func TestGatherLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on len(dst) != len(idx)")
		}
	}()
	Gather(make([]float64, 8), make([]float64, 8), make([]int32, 9))
}

// BenchmarkGather is im2col's gather at conv1's plan: a 3×8×8 sample
// through a 3×3 kernel, 1 728 cells, padding read from a zero sentinel
// after the sample.
func BenchmarkGather(b *testing.B) {
	const ch, h, w, k = 3, 8, 8, 3
	sentinel := int32(ch * h * w)
	var plan []int32
	for c := 0; c < ch; c++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				for y := 0; y < h; y++ {
					for x := 0; x < w; x++ {
						sy, sx := y+ky-k/2, x+kx-k/2
						src := sentinel
						if sy >= 0 && sy < h && sx >= 0 && sx < w {
							src = int32((c*h+sy)*w + sx)
						}
						plan = append(plan, src)
					}
				}
			}
		}
	}
	src := make([]float64, sentinel+1)
	for i := range src[:sentinel] {
		src[i] = float64(i) * 0.25
	}
	dst := make([]float64, len(plan))
	b.SetBytes(int64(12 * len(plan)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gather(dst, src, plan)
	}
}
