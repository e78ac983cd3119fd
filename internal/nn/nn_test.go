package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hop/internal/tensor"
)

func randomBatch(rng *rand.Rand, in Shape, classes, b int) ([]float64, []int) {
	x := make([]float64, b*in.Size())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	labels := make([]int, b)
	for i := range labels {
		labels[i] = rng.Intn(classes)
	}
	return x, labels
}

// numericalGradCheck compares analytic gradients to central
// differences on a handful of randomly chosen parameters.
func numericalGradCheck(t *testing.T, net *Network, x []float64, labels []int, b int, checks int) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	net.LossGrad(x, labels, b)
	analytic := tensor.Clone(net.Grads())
	params := net.Params()
	const eps = 1e-5
	for c := 0; c < checks; c++ {
		i := rng.Intn(len(params))
		orig := params[i]
		params[i] = orig + eps
		lp := net.Loss(x, labels, b)
		params[i] = orig - eps
		lm := net.Loss(x, labels, b)
		params[i] = orig
		numeric := (lp - lm) / (2 * eps)
		diff := math.Abs(numeric - analytic[i])
		scale := math.Max(1, math.Abs(numeric)+math.Abs(analytic[i]))
		if diff/scale > 1e-5 {
			t.Errorf("param %d: analytic %.8g vs numeric %.8g", i, analytic[i], numeric)
		}
	}
}

func TestDenseGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := Shape{C: 6, H: 1, W: 1}
	net := NewNetwork(in, NewDense(5), NewReLU(), NewDense(3))
	net.Init(rng)
	x, labels := randomBatch(rng, in, 3, 4)
	numericalGradCheck(t, net, x, labels, 4, 40)
}

func TestConvGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := Shape{C: 2, H: 6, W: 6}
	net := NewNetwork(in, NewConv2D(3, 3), NewReLU(), NewMaxPool2(), NewDense(4))
	net.Init(rng)
	x, labels := randomBatch(rng, in, 4, 3)
	numericalGradCheck(t, net, x, labels, 3, 60)
}

func TestMiniVGGGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := Shape{C: 3, H: 8, W: 8}
	net := MiniVGG(in, 4)
	net.Init(rng)
	x, labels := randomBatch(rng, in, 4, 2)
	numericalGradCheck(t, net, x, labels, 2, 50)
}

func TestSoftmaxLossKnownValue(t *testing.T) {
	// A single dense layer with zero weights and bias: uniform
	// probabilities, loss = log(classes).
	in := Shape{C: 4, H: 1, W: 1}
	net := NewNetwork(in, NewDense(5))
	x, labels := randomBatch(rand.New(rand.NewSource(4)), in, 5, 8)
	loss := net.Loss(x, labels, 8)
	want := math.Log(5)
	if math.Abs(loss-want) > 1e-12 {
		t.Errorf("uniform loss = %g, want %g", loss, want)
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := Shape{C: 3, H: 8, W: 8}
	net := MiniVGG(in, 3)
	net.Init(rng)
	x, labels := randomBatch(rng, in, 3, 16)
	first := net.LossGrad(x, labels, 16)
	// Plain SGD on a fixed batch must overfit it.
	for i := 0; i < 60; i++ {
		net.LossGrad(x, labels, 16)
		tensor.AXPY(net.Params(), -0.05, net.Grads())
	}
	last := net.Loss(x, labels, 16)
	if last >= first*0.5 {
		t.Errorf("loss did not drop: %g -> %g", first, last)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	in := Shape{C: 3, H: 8, W: 8}
	net := MiniVGG(in, 3)
	net.Init(rng)
	clone := net.Clone()
	if net.NumParams() != clone.NumParams() {
		t.Fatalf("param count differs: %d vs %d", net.NumParams(), clone.NumParams())
	}
	for i, v := range net.Params() {
		if clone.Params()[i] != v {
			t.Fatal("clone params differ from original")
		}
	}
	clone.Params()[0] += 1
	if net.Params()[0] == clone.Params()[0] {
		t.Error("clone shares parameter storage with original")
	}
	// Both must produce valid losses independently.
	x, labels := randomBatch(rng, in, 3, 4)
	_ = net.LossGrad(x, labels, 4)
	_ = clone.LossGrad(x, labels, 4)
}

func TestAccuracy(t *testing.T) {
	in := Shape{C: 2, H: 1, W: 1}
	net := NewNetwork(in, NewDense(2))
	// Identity-ish weights: class = argmax of input.
	copy(net.Params(), []float64{1, 0, 0, 1, 0, 0}) // W=[[1,0],[0,1]], b=0
	x := []float64{3, 1, 0, 2}
	labels := []int{0, 1}
	if acc := net.Accuracy(x, labels, 2); acc != 1 {
		t.Errorf("accuracy = %g, want 1", acc)
	}
	labels = []int{1, 1}
	if acc := net.Accuracy(x, labels, 2); acc != 0.5 {
		t.Errorf("accuracy = %g, want 0.5", acc)
	}
}

func TestShapePropagation(t *testing.T) {
	in := Shape{C: 3, H: 16, W: 16}
	conv := NewConv2D(8, 3)
	if got := conv.OutShape(in); got != (Shape{8, 16, 16}) {
		t.Errorf("conv out shape %v", got)
	}
	pool := NewMaxPool2()
	if got := pool.OutShape(Shape{8, 16, 16}); got != (Shape{8, 8, 8}) {
		t.Errorf("pool out shape %v", got)
	}
	if got := (Shape{8, 8, 8}).Size(); got != 512 {
		t.Errorf("size %d", got)
	}
}

func TestMaxPoolForwardValues(t *testing.T) {
	in := Shape{C: 1, H: 2, W: 2}
	p := NewMaxPool2()
	p.Bind(in, nil, nil)
	out := p.Forward([]float64{1, 5, 3, 2}, 1)
	if len(out) != 1 || out[0] != 5 {
		t.Errorf("pool output %v, want [5]", out)
	}
	dx := p.Backward([]float64{2}, 1)
	want := []float64{0, 2, 0, 0}
	for i := range want {
		if dx[i] != want[i] {
			t.Errorf("pool backward %v, want %v", dx, want)
		}
	}
}

func TestOddKernelRequired(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("even kernel should panic")
		}
	}()
	NewConv2D(4, 2)
}

func TestBatchInputLengthChecked(t *testing.T) {
	in := Shape{C: 2, H: 1, W: 1}
	net := NewNetwork(in, NewDense(2))
	defer func() {
		if recover() == nil {
			t.Error("bad input length should panic")
		}
	}()
	net.Forward([]float64{1, 2, 3}, 2)
}

func TestLayerNames(t *testing.T) {
	if NewConv2D(8, 3).Name() != "conv3x3-8" {
		t.Error("conv name")
	}
	if NewDense(10).Name() != "dense-10" {
		t.Error("dense name")
	}
	if NewReLU().Name() != "relu" || NewMaxPool2().Name() != "maxpool2" {
		t.Error("activation names")
	}
}

// TestLossGradZeroSteadyStateAllocs pins the zero-alloc contract of
// the training hot path: after a warm-up step has grown every layer's
// retained scratch, repeated forward+backward passes must not allocate.
func TestLossGradZeroSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := Shape{C: 3, H: 8, W: 8}
	net := MiniVGG(in, 4)
	net.Init(rng)
	x, labels := randomBatch(rng, in, 4, 16)
	net.LossGrad(x, labels, 16) // warm-up: grow scratch
	allocs := testing.AllocsPerRun(20, func() {
		net.LossGrad(x, labels, 16)
	})
	if allocs > 0 {
		t.Fatalf("LossGrad allocates %.1f objects/step in steady state, want 0", allocs)
	}
}

// --- Per-element references --------------------------------------------
//
// The loops the layers ran before they walked valid ranges: one bounds
// branch per element, one compare-and-branch per pooling candidate, one
// gradient partial per sample. The layer code must reproduce them bit
// for bit.

func refIm2col(in Shape, k int, x, cols []float64) {
	pad := k / 2
	h, w := in.H, in.W
	p := h * w
	row := 0
	for ch := 0; ch < in.C; ch++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				dst := cols[row*p : (row+1)*p]
				row++
				for y := 0; y < h; y++ {
					for x0 := 0; x0 < w; x0++ {
						sy, sx := y+ky-pad, x0+kx-pad
						if sy < 0 || sy >= h || sx < 0 || sx >= w {
							dst[y*w+x0] = 0
						} else {
							dst[y*w+x0] = x[ch*p+sy*w+sx]
						}
					}
				}
			}
		}
	}
}

func refCol2im(in Shape, k int, cols, dx []float64) {
	pad := k / 2
	h, w := in.H, in.W
	p := h * w
	row := 0
	for ch := 0; ch < in.C; ch++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				src := cols[row*p : (row+1)*p]
				row++
				for y := 0; y < h; y++ {
					for x0 := 0; x0 < w; x0++ {
						sy, sx := y+ky-pad, x0+kx-pad
						if sy >= 0 && sy < h && sx >= 0 && sx < w {
							dx[ch*p+sy*w+sx] += src[y*w+x0]
						}
					}
				}
			}
		}
	}
}

func refMaxPool(in Shape, x []float64, b int) (out []float64, arg []int) {
	oh, ow := in.H/2, in.W/2
	outSize := in.C * oh * ow
	out, arg = make([]float64, b*outSize), make([]int, b*outSize)
	for s := 0; s < b; s++ {
		for ch := 0; ch < in.C; ch++ {
			for y := 0; y < oh; y++ {
				for x0 := 0; x0 < ow; x0++ {
					base := s*in.Size() + ch*in.H*in.W + 2*y*in.W + 2*x0
					bi, bv := base, x[base]
					for _, off := range [3]int{1, in.W, in.W + 1} {
						if v := x[base+off]; v > bv {
							bv, bi = v, base+off
						}
					}
					oi := s*outSize + ch*oh*ow + y*ow + x0
					out[oi] = bv
					arg[oi] = bi
				}
			}
		}
	}
	return out, arg
}

// awkward fills v with values drawn to collide: a handful of small
// integers (so pooling windows tie), both zeros, infinities and NaN.
func awkward(rng *rand.Rand, v []float64) {
	pool := []float64{0, math.Copysign(0, -1), 1, 1, 2, -1, 3, math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64}
	for i := range v {
		v[i] = pool[rng.Intn(len(pool))]
	}
}

func bitsEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v (%#x), reference %v (%#x)", name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// convShapes are the CNN's two conv inputs, a non-square image, a 1×1
// and a 5×5 kernel on each kind, kernels reaching past a tiny image,
// and 1×1 kernels whose plans (10, 11, 13, 14, 15 cells) leave the
// tails 2, 3, 5, 6 and 7 after the gather's blocks of eight.
var convShapes = []struct {
	in Shape
	k  int
}{
	{Shape{3, 8, 8}, 3}, {Shape{8, 4, 4}, 3}, {Shape{2, 6, 10}, 3}, {Shape{2, 10, 4}, 3},
	{Shape{3, 8, 8}, 1}, {Shape{8, 4, 4}, 1}, {Shape{2, 6, 10}, 1},
	{Shape{3, 8, 8}, 5}, {Shape{8, 4, 4}, 5}, {Shape{2, 6, 10}, 5},
	{Shape{1, 2, 2}, 5}, {Shape{2, 2, 4}, 7}, {Shape{1, 1, 1}, 3},
	{Shape{1, 2, 5}, 1}, {Shape{1, 1, 11}, 1}, {Shape{1, 1, 13}, 1}, {Shape{1, 2, 7}, 1}, {Shape{1, 3, 5}, 1},
}

func TestIm2colCol2imMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, s := range convShapes {
		c := NewConv2D(4, s.k)
		np := c.ParamCount(s.in)
		c.Bind(s.in, make([]float64, np), make([]float64, np)) // builds the plan
		n := s.in.C * s.k * s.k * s.in.H * s.in.W
		for _, fill := range []func(*rand.Rand, []float64){awkward, func(r *rand.Rand, v []float64) {
			for i := range v {
				v[i] = r.NormFloat64()
			}
		}} {
			x := make([]float64, s.in.Size())
			fill(rng, x)
			got, want := make([]float64, n), make([]float64, n)
			for i := range got {
				got[i] = math.NaN() // every cell must be written
			}
			c.im2col(x, got)
			refIm2col(s.in, s.k, x, want)
			bitsEqual(t, fmt.Sprintf("im2col %v k=%d", s.in, s.k), got, want)

			cols := make([]float64, n)
			fill(rng, cols)
			gotDx, wantDx := make([]float64, s.in.Size()), make([]float64, s.in.Size())
			fill(rng, gotDx) // col2im accumulates onto what is there
			copy(wantDx, gotDx)
			c.col2im(cols, gotDx)
			refCol2im(s.in, s.k, cols, wantDx)
			// Sums of NaNs may differ in payload; everything else in bits.
			for i := range wantDx {
				if math.IsNaN(wantDx[i]) && math.IsNaN(gotDx[i]) {
					gotDx[i] = wantDx[i]
				}
			}
			bitsEqual(t, fmt.Sprintf("col2im %v k=%d", s.in, s.k), gotDx, wantDx)
		}
	}
}

func TestMaxPoolMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, in := range []Shape{{8, 8, 8}, {16, 4, 4}, {2, 6, 10}, {3, 2, 2}, {1, 4, 2}} {
		for _, b := range []int{1, 3} {
			for rep := 0; rep < 20; rep++ {
				x := make([]float64, b*in.Size())
				awkward(rng, x)
				m := NewMaxPool2()
				m.Bind(in, nil, nil)
				got := m.Forward(x, b)
				want, wantArg := refMaxPool(in, x, b)
				bitsEqual(t, fmt.Sprintf("maxpool %v b=%d", in, b), got, want)
				for i, a := range wantArg {
					if m.argmax[i] != a {
						t.Fatalf("maxpool %v b=%d: argmax[%d] = %d, reference %d", in, b, i, m.argmax[i], a)
					}
				}
			}
		}
	}
}

// refConvBackward is the convolution's backward pass with every
// sample's dW, db and dcols held in its own [b × …] partial and the
// partials folded into dw and db afterwards, in sample order. It returns
// dx (nil when the layer skips it).
func refConvBackward(c *Conv2D, dy []float64, b int) []float64 {
	in := c.in
	p := in.H * in.W
	kdim := in.C * c.K * c.K
	nw := len(c.dw)
	dwAll, dbAll := make([]float64, b*nw), make([]float64, b*c.OutC)
	dcolAll, dx := make([]float64, b*kdim*p), make([]float64, b*in.Size())
	for s := 0; s < b; s++ {
		dout := dy[s*c.OutC*p : (s+1)*c.OutC*p]
		tensor.MatMulABT(dwAll[s*nw:(s+1)*nw], dout, c.lastCol[s*kdim*p:(s+1)*kdim*p], c.OutC, p, kdim)
		for oc := 0; oc < c.OutC; oc++ {
			sum := 0.0
			for _, v := range dout[oc*p : (oc+1)*p] {
				sum += v
			}
			dbAll[s*c.OutC+oc] = sum
		}
		dcol := dcolAll[s*kdim*p : (s+1)*kdim*p]
		tensor.MatMulATB(dcol, c.weights, dout, c.OutC, kdim, p)
		refCol2im(in, c.K, dcol, dx[s*in.Size():(s+1)*in.Size()])
	}
	for s := 0; s < b; s++ {
		tensor.Add(c.dw, dwAll[s*nw:(s+1)*nw])
		for oc := 0; oc < c.OutC; oc++ {
			c.db[oc] += dbAll[s*c.OutC+oc]
		}
	}
	if c.noDx {
		return nil
	}
	return dx
}

// TestConvBackwardMatchesPerSamplePartials pins the fold of one
// sample's scratch into dw/db against the per-sample-partials reference
// on MiniVGG's two conv layers, as a network's first layer and not, at
// the batch sizes a run issues (1, the training batch, the eval batch).
func TestConvBackwardMatchesPerSamplePartials(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, l := range []struct {
		in   Shape
		outC int
	}{{Shape{3, 8, 8}, 8}, {Shape{8, 4, 4}, 16}} {
		for _, b := range []int{1, 16, 128} {
			for _, noDx := range []bool{true, false} {
				name := fmt.Sprintf("conv %v->%d b=%d noDx=%v", l.in, l.outC, b, noDx)
				c := NewConv2D(l.outC, 3)
				n := c.ParamCount(l.in)
				params, grads := make([]float64, n), make([]float64, n)
				c.Bind(l.in, params, grads)
				c.Init(rng)
				c.noDx = noDx
				x, _ := randomBatch(rng, l.in, 2, b)
				dy, _ := randomBatch(rng, c.OutShape(l.in), 2, b)
				// Gradients accumulate onto what the buffer holds.
				for i := range grads {
					grads[i] = rng.NormFloat64()
				}
				start := tensor.Clone(grads)
				c.Forward(x, b)
				gotDx := tensor.Clone(c.Backward(dy, b))
				got := tensor.Clone(grads)
				copy(grads, start)
				wantDx := refConvBackward(c, dy, b)
				bitsEqual(t, name+" dw/db", got, grads)
				bitsEqual(t, name+" dx", gotDx, wantDx)
			}
		}
	}
}

// TestFirstLayerSkipsInputGrad: the first layer of a network computes
// no dLoss/dIn and holds no scratch for it, and its parameter gradients
// are those of the same layer with a layer in front of it. The layer in
// front is a ReLU fed positive inputs, i.e. the identity.
func TestFirstLayerSkipsInputGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	positive := func(in Shape, b int) []float64 {
		x := make([]float64, b*in.Size())
		for i := range x {
			x[i] = rng.Float64() + 0.1
		}
		return x
	}
	const b = 5
	labels := []int{0, 1, 2, 3, 1}
	for _, tc := range []struct {
		name  string
		in    Shape
		first func() Layer
		rest  func() []Layer
	}{
		{"conv", Shape{3, 8, 8}, func() Layer { return NewConv2D(8, 3) },
			func() []Layer { return []Layer{NewReLU(), NewMaxPool2(), NewDense(4)} }},
		{"dense", Shape{6, 1, 1}, func() Layer { return NewDense(7) },
			func() []Layer { return []Layer{NewReLU(), NewDense(4)} }},
	} {
		first, second := tc.first(), tc.first()
		lead := NewNetwork(tc.in, append([]Layer{first}, tc.rest()...)...)
		behind := NewNetwork(tc.in, append([]Layer{NewReLU(), second}, tc.rest()...)...)
		lead.Init(rand.New(rand.NewSource(31)))
		copy(behind.Params(), lead.Params())
		x := positive(tc.in, b)
		for step := 0; step < 2; step++ {
			lossLead, lossBehind := lead.LossGrad(x, labels, b), behind.LossGrad(x, labels, b)
			if lossLead != lossBehind {
				t.Fatalf("%s: loss %v as first layer, %v as second", tc.name, lossLead, lossBehind)
			}
			bitsEqual(t, tc.name+" grads", lead.Grads(), behind.Grads())
		}
		switch l := first.(type) {
		case *Conv2D:
			if l.dx != nil || l.dcol != nil {
				t.Errorf("conv as first layer holds dx (%d) / dcol (%d) scratch", cap(l.dx), cap(l.dcol))
			}
			if s := second.(*Conv2D); s.dx == nil || s.dcol == nil {
				t.Errorf("conv as second layer computed no input gradient")
			}
		case *Dense:
			if l.dx != nil {
				t.Errorf("dense as first layer holds dx (%d) scratch", cap(l.dx))
			}
			if second.(*Dense).dx == nil {
				t.Errorf("dense as second layer computed no input gradient")
			}
		}
		if dx := first.Backward(make([]float64, b*first.OutShape(tc.in).Size()), b); dx != nil {
			t.Errorf("%s as first layer returned an input gradient of %d values", tc.name, len(dx))
		}
	}
}
