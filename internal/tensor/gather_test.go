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

// loopGatherAdd is GatherAdd's reference, as loopGather is Gather's.
func loopGatherAdd(dst, src []float64, idx []int32) {
	for i, k := range idx {
		dst[i] += src[k]
	}
}

// gathers are the two gathers and their Go-loop references.
var gathers = []struct {
	name     string
	fn, loop func(dst, src []float64, idx []int32)
}{
	{"Gather", Gather, loopGather},
	{"GatherAdd", GatherAdd, loopGatherAdd},
}

// TestGatherMatchesLoop pins the bits of Gather and GatherAdd to their Go
// loops at every length through two vector blocks and a tail, on every
// kernel; GatherAdd's cells start from values as awkward as the source's.
func TestGatherMatchesLoop(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(45))
		src := gatherSrc(r, 37)
		for _, g := range gathers {
			for n := 0; n <= 17; n++ {
				idx := make([]int32, n)
				for i := range idx {
					idx[i] = int32(r.Intn(len(src)))
				}
				want := gatherSrc(r, n+1)[:n]
				if n > 0 {
					// NaN on both sides of an add: the accumulator's
					// payload is the one kept (src[21] is gatherSrc's).
					want[n-1], idx[n-1] = math.Float64frombits(0x7ff8_0000_0000_0001), 21
				}
				got := append([]float64(nil), want...)
				g.loop(want, src, idx)
				g.fn(got, src, idx)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s n=%d: cell %d = %#x, loop %#x", g.name, n, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
			}
		}
	})
}

// TestGatherOutOfRangePanics puts an out-of-range index — len(src), −1
// and MaxInt32 — in every lane of two vector blocks and a tail: Gather
// and GatherAdd must panic as their Go loops do, with every cell in front
// of the bad one written and none after it.
func TestGatherOutOfRangePanics(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(46))
		src := gatherSrc(r, 29)
		const n = 19
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(r.Intn(len(src)))
		}
		for _, g := range gathers {
			start := make([]float64, n)
			Fill(start, 42)
			want := append([]float64(nil), start...)
			g.loop(want, src, idx)
			for _, bad := range []int32{int32(len(src)), -1, math.MaxInt32} {
				for pos := 0; pos < n; pos++ {
					name := fmt.Sprintf("%s idx[%d]=%d", g.name, pos, bad)
					bidx := append([]int32(nil), idx...)
					bidx[pos] = bad
					got := append([]float64(nil), start...)
					func() {
						defer func() {
							if _, ok := recover().(runtime.Error); !ok {
								t.Fatalf("%s: no index-out-of-range panic", name)
							}
						}()
						g.fn(got, src, bidx)
					}()
					for i := range got {
						w := want[i]
						if i >= pos {
							w = start[i]
						}
						if math.Float64bits(got[i]) != math.Float64bits(w) {
							t.Fatalf("%s: cell %d = %g, want %g", name, i, got[i], w)
						}
					}
				}
			}
		}
	})
}

func TestGatherLengthMismatchPanics(t *testing.T) {
	for _, g := range gathers {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic on len(dst) != len(idx)", g.name)
				}
			}()
			g.fn(make([]float64, 8), make([]float64, 8), make([]int32, 9))
		}()
	}
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

// BenchmarkGatherAdd is col2im at conv2's plan: an 8×4×4 sample's input
// gradient summed from its 3×3 kernel's 1 152-cell column gradient, one
// gather-add of 128 cells per kernel offset, padding read from a zero
// sentinel after the columns.
func BenchmarkGatherAdd(b *testing.B) {
	const ch, h, w, k = 8, 4, 4, 3
	const p, size = h * w, ch * h * w
	sentinel := int32(ch * k * k * p)
	back := make([]int32, 0, k*k*size)
	for t := 0; t < k*k; t++ {
		ky, kx := t/k, t%k
		for c := 0; c < ch; c++ {
			for sy := 0; sy < h; sy++ {
				for sx := 0; sx < w; sx++ {
					y, x := sy-ky+k/2, sx-kx+k/2
					cell := sentinel
					if y >= 0 && y < h && x >= 0 && x < w {
						cell = int32((c*k*k+t)*p + y*w + x)
					}
					back = append(back, cell)
				}
			}
		}
	}
	cols := make([]float64, sentinel+1)
	fillRand(rand.New(rand.NewSource(50)), cols[:sentinel])
	dx := make([]float64, size)
	b.SetBytes(int64(12 * len(back)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(dx)
		for t := 0; t < k*k; t++ {
			GatherAdd(dx, cols, back[t*size:(t+1)*size])
		}
	}
}
