package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// loopWindowMax4 is WindowMax4's reference: the compare-and-branch loop
// over the window in order.
func loopWindowMax4(out []float64, arg []int, x []float64, plan []int32, w, base int) {
	for i, k := range plan {
		bi := int(k)
		for _, j := range [3]int{bi + 1, int(k) + w, int(k) + w + 1} {
			if x[j] > x[bi] {
				bi = j
			}
		}
		out[i], arg[i] = x[bi], base+bi
	}
}

// windowCells are the values every window slot takes: both zeros (equal
// under >), a number, its negation, both infinities and NaN.
var windowCells = []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN()}

// windowRows lays every assignment of windowCells to a window's four
// cells side by side in two rows of w cells: window m's top-left cell is
// 2m. It returns the rows and the window count.
func windowRows() (x []float64, w, windows int) {
	c := len(windowCells)
	windows = c * c * c * c
	w = 2 * windows
	x = make([]float64, 2*w)
	for m := 0; m < windows; m++ {
		d := m
		for _, cell := range [4]int{2 * m, 2*m + 1, w + 2*m, w + 2*m + 1} {
			x[cell] = windowCells[d%c]
			d /= c
		}
	}
	return x, w, windows
}

// TestWindowMax4MatchesLoop runs every assignment of ±0, ±1, ±Inf and NaN
// to a window's four cells (ties included) through every lane of every
// output count 0–17 — each tail after zero, one and two blocks of eight —
// on every kernel, and pins values and indices to the loop's.
func TestWindowMax4MatchesLoop(t *testing.T) {
	x, w, windows := windowRows()
	eachKernel(t, func(t *testing.T) {
		for n := 0; n <= 17; n++ {
			plan := make([]int32, n)
			got, want := make([]float64, n), make([]float64, n)
			gotArg, wantArg := make([]int, n), make([]int, n)
			for start := 0; start < windows; start++ {
				for i := range plan {
					plan[i] = int32(2 * ((start + i) % windows))
				}
				base := 1000 * start
				Fill(got, 42)
				WindowMax4(got, gotArg, x, plan, w, base)
				loopWindowMax4(want, wantArg, x, plan, w, base)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) || gotArg[i] != wantArg[i] {
						t.Fatalf("n=%d window at %d, lane %d: %v at %d, loop %v at %d", n, plan[i], i, got[i], gotArg[i], want[i], wantArg[i])
					}
				}
			}
		}
	})
}

// TestWindowMax4BadPlanPanics puts a plan entry whose window leaves x —
// −1, the first one whose lower-right cell is len(x), and MaxInt32 — in
// every lane of two vector blocks and a tail: WindowMax4 must panic as
// indexing does, with every output in front of the bad one written and
// none after it.
func TestWindowMax4BadPlanPanics(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(47))
		const h, w, n = 6, 10, 19
		x := make([]float64, h*w)
		fillRand(r, x)
		plan := make([]int32, n)
		for i := range plan {
			plan[i] = int32(r.Intn(h-1)*w + r.Intn(w-1))
		}
		want, wantArg := make([]float64, n), make([]int, n)
		loopWindowMax4(want, wantArg, x, plan, w, 0)
		for _, bad := range []int32{-1, int32(len(x) - w - 1), math.MaxInt32} {
			for pos := 0; pos < n; pos++ {
				name := fmt.Sprintf("plan[%d]=%d", pos, bad)
				bplan := append([]int32(nil), plan...)
				bplan[pos] = bad
				got, gotArg := make([]float64, n), make([]int, n)
				Fill(got, 42)
				func() {
					defer func() {
						if _, ok := recover().(runtime.Error); !ok {
							t.Fatalf("%s: no index-out-of-range panic", name)
						}
					}()
					WindowMax4(got, gotArg, x, bplan, w, 0)
				}()
				for i := range got {
					wv, wa := want[i], wantArg[i]
					if i >= pos {
						wv, wa = 42, 0
					}
					if math.Float64bits(got[i]) != math.Float64bits(wv) || gotArg[i] != wa {
						t.Fatalf("%s: output %d = %g at %d, want %g at %d", name, i, got[i], gotArg[i], wv, wa)
					}
				}
			}
		}
	})
}

func TestWindowMax4LengthMismatchPanics(t *testing.T) {
	for _, lens := range [][3]int{{8, 9, 9}, {9, 8, 9}, {9, 9, 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic on out=%d arg=%d plan=%d", lens[0], lens[1], lens[2])
				}
			}()
			WindowMax4(make([]float64, lens[0]), make([]int, lens[1]), make([]float64, 64), make([]int32, lens[2]), 8, 0)
		}()
	}
}

// TestAddConstMatchesLoop pins AddConst to v[i] += c at lengths through
// its vector blocks and tails, on every kernel.
func TestAddConstMatchesLoop(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(48))
		for n := 0; n <= 19; n++ {
			for _, c := range []float64{0, math.Copysign(0, -1), 0.3, -2.5e3, math.Inf(1), math.NaN()} {
				want := make([]float64, n)
				fillRand(r, want)
				got := append([]float64(nil), want...)
				for i := range want {
					want[i] += c
				}
				AddConst(got, c)
				exactEq(t, fmt.Sprintf("AddConst c=%g", c), got, want, 1, n)
			}
		}
	})
}

// BenchmarkWindowMax4 is MaxPool2.Forward's pooling at the CNN's two
// pools, a batch of 16 samples a call each: conv1's 8×8×8 output to
// 8×4×4 and conv2's 16×4×4 to 16×2×2.
func BenchmarkWindowMax4(b *testing.B) {
	for _, pool := range []struct {
		name    string
		c, h, w int
	}{{"conv1", 8, 8, 8}, {"conv2", 16, 4, 4}} {
		b.Run(pool.name, func(b *testing.B) {
			const batch = 16
			size := pool.c * pool.h * pool.w
			var plan []int32
			for ch := 0; ch < pool.c; ch++ {
				for y := 0; y < pool.h; y += 2 {
					for x := 0; x < pool.w; x += 2 {
						plan = append(plan, int32((ch*pool.h+y)*pool.w+x))
					}
				}
			}
			x := make([]float64, batch*size)
			fillRand(rand.New(rand.NewSource(49)), x)
			out, arg := make([]float64, batch*len(plan)), make([]int, batch*len(plan))
			b.SetBytes(int64(8 * len(x)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for s, o := 0, 0; s < batch; s, o = s+1, o+len(plan) {
					WindowMax4(out[o:o+len(plan)], arg[o:o+len(plan)], x[s*size:(s+1)*size], plan, pool.w, s*size)
				}
			}
		})
	}
}
