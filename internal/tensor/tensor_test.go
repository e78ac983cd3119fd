package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestAXPYAndScale(t *testing.T) {
	v := []float64{1, 2, 3}
	AXPY(v, 2, []float64{10, 20, 30})
	want := []float64{21, 42, 63}
	for i := range want {
		if !almostEq(v[i], want[i]) {
			t.Fatalf("AXPY %v, want %v", v, want)
		}
	}
	Scale(v, 0.5)
	for i := range want {
		if !almostEq(v[i], want[i]/2) {
			t.Fatalf("Scale %v", v)
		}
	}
}

func TestDotNormDist(t *testing.T) {
	a := []float64{3, 4}
	if !almostEq(Dot(a, a), 25) {
		t.Error("Dot")
	}
	if !almostEq(Norm2(a), 5) {
		t.Error("Norm2")
	}
	if !almostEq(Dist2(a, []float64{0, 0}), 5) {
		t.Error("Dist2")
	}
}

func TestMeanAndWeightedMean(t *testing.T) {
	dst := make([]float64, 2)
	Mean(dst, [][]float64{{1, 2}, {3, 6}})
	if !almostEq(dst[0], 2) || !almostEq(dst[1], 4) {
		t.Errorf("Mean %v", dst)
	}
	WeightedMean(dst, [][]float64{{1, 0}, {5, 0}}, []float64{1, 3})
	if !almostEq(dst[0], 4) {
		t.Errorf("WeightedMean %v", dst)
	}
}

func TestWeightedMeanMatchesMeanWithEqualWeights(t *testing.T) {
	f := func(a, b, c float64) bool {
		// Constrain to a sane range; astronomically large inputs
		// overflow and are not meaningful here.
		a, b, c = math.Remainder(a, 1e6), math.Remainder(b, 1e6), math.Remainder(c, 1e6)
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) {
			return true
		}
		v := [][]float64{{a}, {b}, {c}}
		m1 := make([]float64, 1)
		m2 := make([]float64, 1)
		Mean(m1, v)
		WeightedMean(m2, v, []float64{2, 2, 2})
		return math.Abs(m1[0]-m2[0]) < 1e-9*(1+math.Abs(m1[0]))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMatMulKnown(t *testing.T) {
	// [[1,2],[3,4]] · [[5,6],[7,8]] = [[19,22],[43,50]]
	c := make([]float64, 4)
	MatMul(c, []float64{1, 2, 3, 4}, []float64{5, 6, 7, 8}, 2, 2, 2)
	want := []float64{19, 22, 43, 50}
	for i := range want {
		if !almostEq(c[i], want[i]) {
			t.Fatalf("MatMul %v, want %v", c, want)
		}
	}
}

func TestMatMulVariantsAgree(t *testing.T) {
	// Check ATB and ABT against plain MatMul with explicit transposes.
	m, k, n := 3, 4, 2
	a := make([]float64, m*k) // A: m×k
	b := make([]float64, k*n) // B: k×n
	for i := range a {
		a[i] = float64(i%7) - 3
	}
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	want := make([]float64, m*n)
	MatMul(want, a, b, m, k, n)

	// ATB: pass Aᵀ (k×m) as the "a" argument.
	at := make([]float64, k*m)
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			at[j*m+i] = a[i*k+j]
		}
	}
	got := make([]float64, m*n)
	MatMulATB(got, at, b, k, m, n)
	for i := range want {
		if !almostEq(got[i], want[i]) {
			t.Fatalf("MatMulATB %v, want %v", got, want)
		}
	}

	// ABT: pass Bᵀ (n×k) as the "b" argument.
	bt := make([]float64, n*k)
	for i := 0; i < k; i++ {
		for j := 0; j < n; j++ {
			bt[j*k+i] = b[i*n+j]
		}
	}
	got2 := make([]float64, m*n)
	MatMulABT(got2, a, bt, m, k, n)
	for i := range want {
		if !almostEq(got2[i], want[i]) {
			t.Fatalf("MatMulABT %v, want %v", got2, want)
		}
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax([]float64{1, 5, 3}) != 1 {
		t.Error("ArgMax")
	}
	if ArgMax([]float64{-2, -1, -9}) != 1 {
		t.Error("ArgMax negative")
	}
}

func TestPanicsOnMismatch(t *testing.T) {
	cases := []func(){
		func() { Copy([]float64{1}, []float64{1, 2}) },
		func() { AXPY([]float64{1}, 1, []float64{1, 2}) },
		func() { Add([]float64{1}, []float64{1, 2}) },
		func() { Transpose(make([]float64, 6), make([]float64, 6), 2, 4) },
		func() { ReLU(make([]float64, 4), make([]float64, 5)) },
		func() { ReLUGrad(make([]float64, 5), make([]float64, 5), make([]float64, 4)) },
		func() { Dot([]float64{1}, []float64{1, 2}) },
		func() { Dist2([]float64{1}, []float64{1, 2}) },
		func() { Mean([]float64{1}, nil) },
		func() { MomentumStep(make([]float64, 2), make([]float64, 2), make([]float64, 1), 0, 0, 1) },
		func() { MomentumStep(make([]float64, 2), make([]float64, 3), make([]float64, 2), 0, 0, 1) },
		func() { WeightedMean([]float64{1}, [][]float64{{1}}, []float64{0}) },
		func() { MatMul(make([]float64, 1), make([]float64, 2), make([]float64, 2), 1, 1, 1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestFillZerosClone(t *testing.T) {
	v := Zeros(3)
	Fill(v, 2.5)
	c := Clone(v)
	c[0] = 0
	if v[0] != 2.5 {
		t.Error("Clone aliases storage")
	}
	Copy(v, []float64{1, 2, 3})
	if v[2] != 3 {
		t.Error("Copy")
	}
}

// TestFillBits: Fill writes x's exact bits to every element — the sign
// of zero and a NaN's payload included — at every length around the
// doubling's powers of two, and nothing past the slice.
func TestFillBits(t *testing.T) {
	for _, x := range []float64{0, math.Copysign(0, -1), 2.5, math.NaN(), math.Float64frombits(0x7ff8dead0000beef), math.Inf(-1)} {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 1000, 4097} {
			buf := make([]float64, n+1)
			buf[n] = 42
			Fill(buf[:n], x)
			for i, v := range buf[:n] {
				if math.Float64bits(v) != math.Float64bits(x) {
					t.Fatalf("x=%#x n=%d: element %d is %#x", math.Float64bits(x), n, i, math.Float64bits(v))
				}
			}
			if buf[n] != 42 {
				t.Fatalf("x=%#x n=%d: wrote past the slice", math.Float64bits(x), n)
			}
		}
	}
}

// meanRef is the implementation Mean replaced: zero-fill, one AXPY per
// vector, scale.
func meanRef(dst []float64, vectors [][]float64) {
	Fill(dst, 0)
	for _, v := range vectors {
		Add(dst, v)
	}
	Scale(dst, 1/float64(len(vectors)))
}

// TestMeanMatchesReference: the one-pass Mean must round exactly as
// the multi-pass one did (§3.1's bit-identical rule), including the
// sign of zero and non-finite entries, for every vector count through
// six — both sides of the Go loops' tiled path — and every length
// through 13 (the kernel's 16-, 4- and 1-cell steps and their tails),
// the live ring's 4096 and the CNN's 5812, with and without AVX.
func TestMeanMatchesReference(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		special := []float64{math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1), 1e308, -1e308, 5e-324}
		lengths := []int{4096, 5812}
		for n := 0; n <= 13; n++ {
			lengths = append(lengths, n)
		}
		for count := 1; count <= 6; count++ {
			for _, n := range lengths {
				vecs := make([][]float64, count)
				for k := range vecs {
					vecs[k] = make([]float64, n)
					for i := range vecs[k] {
						if rng.Intn(4) == 0 {
							vecs[k][i] = special[rng.Intn(len(special))]
						} else {
							vecs[k][i] = rng.NormFloat64()
						}
					}
				}
				if n > 0 {
					// Every vector −0 at the first and the last element
					// (the kernel's widest step and its narrowest): the
					// mean is +0.
					for k := range vecs {
						vecs[k][0], vecs[k][n-1] = math.Copysign(0, -1), math.Copysign(0, -1)
					}
				}
				got, want := make([]float64, n), make([]float64, n)
				Fill(got, 42) // previous contents must not leak
				Mean(got, vecs)
				meanRef(want, vecs)
				exactEq(t, "Mean", got, want, count, n)
				if n > 0 && (math.Signbit(got[0]) || math.Signbit(got[n-1])) {
					t.Fatalf("%d vectors of %d: mean of −0s is −0", count, n)
				}
			}
		}
	})
}

// stepRef is the momentum step as opt.SGD.Step first wrote it, one
// expression per element with every operand read where it is used.
func stepRef(x, v, g []float64, m, wd, lr float64) {
	for i := range x {
		vi := m*v[i] + g[i] + wd*x[i]
		v[i] = vi
		x[i] -= lr * vi
	}
}

// TestMomentumStepMatchesReference pins MomentumStep to stepRef, bit
// for bit, at every length through 13 (the kernel's 8-, 4- and 1-cell
// steps) and at 257, with NaN, ±Inf, ±0 and subnormals in x, v and g,
// over several steps so the velocity carries state; at the SVM's
// hyper-parameters and at momentum and decay off.
func TestMomentumStepMatchesReference(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(9))
		special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
			5e-324, -5e-324, 2.2e-308, -1e-310}
		draw := func() float64 {
			if rng.Intn(4) == 0 {
				return special[rng.Intn(len(special))]
			}
			return rng.NormFloat64()
		}
		lengths := []int{257}
		for n := 0; n <= 13; n++ {
			lengths = append(lengths, n)
		}
		for _, h := range []struct{ m, wd, lr float64 }{{0.9, 1e-7, 0.2}, {0, 0, 0.05}, {0.5, 3, 1e-300}} {
			for _, n := range lengths {
				x, v := make([]float64, n), make([]float64, n)
				for i := range x {
					x[i], v[i] = draw(), draw()
				}
				xr, vr := Clone(x), Clone(v)
				g := make([]float64, n)
				for step := 0; step < 4; step++ {
					for i := range g {
						g[i] = draw()
					}
					MomentumStep(x, v, g, h.m, h.wd, h.lr)
					stepRef(xr, vr, g, h.m, h.wd, h.lr)
					exactEq(t, "MomentumStep params", x, xr, step, n)
					exactEq(t, "MomentumStep velocity", v, vr, step, n)
				}
			}
		}
	})
}
