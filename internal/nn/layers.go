package nn

import (
	"fmt"
	"math"
	"math/rand"

	"hop/internal/tensor"
)

// --- Conv2D ----------------------------------------------------------

// Conv2D is a 2-D convolution with square kernels, stride 1 and "same"
// padding (pad = K/2), implemented with im2col + matmul.
type Conv2D struct {
	OutC, K int

	in      Shape
	weights []float64 // [OutC, inC*K*K]
	bias    []float64 // [OutC]
	dw, db  []float64

	// plan is the im2col gather, built in Bind: for every cell of one
	// sample's (kdim) × (H*W) column matrix, row-major, the element of
	// the sample it copies, or in.Size() — the zero sentinel after the
	// sample in xpad — where the kernel reaches into the padding.
	plan []int32
	xpad []float64 // [in.Size()+1]: one sample, then the sentinel
	// back is the plan inverted for col2im, built in Bind: for kernel
	// offset t = ky·K+kx and input cell j, back[t·in.Size()+j] is the
	// plan cell that copies j at that offset, or len(plan) — a +0
	// sentinel after the column matrix — where none does.
	back []int32

	lastCol []float64 // [b, kdim*p] im2col of the last input, kept for Backward
	out     []float64

	// Backward scratch, retained across steps so the training hot path
	// is allocation-free in steady state (same cap-check pattern as
	// Forward). doutT and dcol hold one sample's at a time.
	dx    []float64
	doutT []float64 // [p, OutC]: dOutₛᵀ
	dwT   []float64 // [2, kdim, OutC]: the dWᵀ accumulator, then one sample's dWₛᵀ
	dcol  []float64 // [kdim*p+1]: the column gradient, then the sentinel

	noDx bool // first layer of its network: Backward returns nil
}

// NewConv2D returns a conv layer producing outC channels with a k×k
// kernel (k must be odd for same padding).
func NewConv2D(outC, k int) *Conv2D {
	if k%2 == 0 {
		panic(fmt.Sprintf("nn: Conv2D kernel %d must be odd", k))
	}
	return &Conv2D{OutC: outC, K: k}
}

func (c *Conv2D) Name() string { return fmt.Sprintf("conv%dx%d-%d", c.K, c.K, c.OutC) }

func (c *Conv2D) OutShape(in Shape) Shape { return Shape{C: c.OutC, H: in.H, W: in.W} }

func (c *Conv2D) ParamCount(in Shape) int { return c.OutC*in.C*c.K*c.K + c.OutC }

func (c *Conv2D) Bind(in Shape, params, grads []float64) {
	c.in = in
	c.setParams(params, grads)
	c.plan = im2colPlan(in, c.K)
	c.xpad = make([]float64, in.Size()+1)
	c.back = col2imPlan(c.plan, in, c.K)
}

func (c *Conv2D) setParams(params, grads []float64) {
	nw := c.OutC * c.in.C * c.K * c.K
	c.weights, c.bias = params[:nw], params[nw:]
	c.dw, c.db = grads[:nw], grads[nw:]
}

// im2colPlan is Conv2D.plan for input shape in and a k×k kernel.
func im2colPlan(in Shape, k int) []int32 {
	pad := k / 2
	h, w := in.H, in.W
	plan := make([]int32, 0, in.C*k*k*h*w)
	for ch := 0; ch < in.C; ch++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				for y := 0; y < h; y++ {
					for x := 0; x < w; x++ {
						sy, sx := y+ky-pad, x+kx-pad
						src := in.Size()
						if sy >= 0 && sy < h && sx >= 0 && sx < w {
							src = (ch*h+sy)*w + sx
						}
						plan = append(plan, int32(src))
					}
				}
			}
		}
	}
	return plan
}

// col2imPlan inverts plan, im2colPlan(in, k), into Conv2D.back. Plan
// cell i belongs to kernel offset t = (i / (H·W)) mod k², and no two
// cells of one offset copy the same input cell.
func col2imPlan(plan []int32, in Shape, k int) []int32 {
	n, p := in.Size(), in.H*in.W
	back := make([]int32, k*k*n)
	for i := range back {
		back[i] = int32(len(plan))
	}
	for i, src := range plan {
		if int(src) < n {
			back[(i/p)%(k*k)*n+int(src)] = int32(i)
		}
	}
	return back
}

func (c *Conv2D) Init(rng *rand.Rand) {
	fanIn := float64(c.in.C * c.K * c.K)
	std := math.Sqrt(2 / fanIn) // He initialization for ReLU nets
	for i := range c.weights {
		c.weights[i] = rng.NormFloat64() * std
	}
	for i := range c.bias {
		c.bias[i] = 0
	}
}

func (c *Conv2D) clone() Layer { return NewConv2D(c.OutC, c.K) }

func (c *Conv2D) skipInputGrad() { c.noDx = true }

// im2col extracts the K×K patch around every pixel of sample x
// (in.C×H×W) into cols, a (inC*K*K) × (H*W) row-major matrix: one copy
// of x in front of the zero sentinel, then one gather by the plan.
func (c *Conv2D) im2col(x, cols []float64) {
	xp := c.xpad[:len(x)+1]
	copy(xp, x)
	xp[len(x)] = 0
	tensor.Gather(cols[:len(c.plan)], xp, c.plan)
}

// col2im writes into dx, from +0, the sum of the column gradient cells
// the plan copied each input cell to: one gather-add by back per kernel
// offset, in ascending offset — which is ascending plan order, so each
// cell takes the terms of a scatter-add by the plan in the scatter's
// order (DESIGN.md §3.1). cols holds len(plan)+1 cells; col2im sets the
// last to the +0 that offsets reaching padding add.
func (c *Conv2D) col2im(cols, dx []float64) {
	cols[len(c.plan)] = 0
	clear(dx)
	for t := 0; t < c.K*c.K; t++ {
		tensor.GatherAdd(dx, cols, c.back[t*len(dx):(t+1)*len(dx)])
	}
}

func (c *Conv2D) Forward(x []float64, b int) []float64 {
	in := c.in
	p := in.H * in.W
	kdim := in.C * c.K * c.K
	if cap(c.lastCol) < b*kdim*p {
		c.lastCol = make([]float64, b*kdim*p)
	}
	if cap(c.out) < b*c.OutC*p {
		c.out = make([]float64, b*c.OutC*p)
	}
	out := c.out[:b*c.OutC*p]
	for s := 0; s < b; s++ {
		cols := c.lastCol[s*kdim*p : (s+1)*kdim*p]
		c.im2col(x[s*in.Size():(s+1)*in.Size()], cols)
		o := out[s*c.OutC*p : (s+1)*c.OutC*p]
		tensor.MatMul(o, c.weights, cols, c.OutC, kdim, p)
		for oc, bv := range c.bias {
			tensor.AddConst(o[oc*p:(oc+1)*p], bv)
		}
	}
	return out
}

// Backward computes one sample's dW and db at a time and adds them to
// the shared gradient in sample order; every pinned report's bits depend
// on that order (DESIGN.md §3.1). dW is computed and folded transposed,
// dWₛᵀ = cols · dOutₛᵀ, so the per-sample transpose is of dOut, the
// small operand; the accumulator starts from what dw holds and is
// written back once.
func (c *Conv2D) Backward(dy []float64, b int) []float64 {
	in := c.in
	p := in.H * in.W
	kdim := in.C * c.K * c.K
	nw := len(c.dw)
	if cap(c.doutT) < c.OutC*p {
		c.doutT = make([]float64, c.OutC*p)
	}
	if cap(c.dwT) < 2*nw {
		c.dwT = make([]float64, 2*nw)
	}
	doutT := c.doutT[:c.OutC*p]
	dwT, dwsT := c.dwT[:nw], c.dwT[nw:2*nw]
	tensor.Transpose(dwT, c.dw, c.OutC, kdim)
	var dcol []float64
	if !c.noDx {
		if cap(c.dx) < b*in.Size() {
			c.dx = make([]float64, b*in.Size())
		}
		if cap(c.dcol) < kdim*p+1 {
			c.dcol = make([]float64, kdim*p+1)
		}
		dcol = c.dcol[:kdim*p+1]
	}
	for s := 0; s < b; s++ {
		dout := dy[s*c.OutC*p : (s+1)*c.OutC*p]
		cols := c.lastCol[s*kdim*p : (s+1)*kdim*p]
		tensor.Transpose(doutT, dout, c.OutC, p)
		tensor.MatMul(dwsT, cols, doutT, kdim, p, c.OutC)
		tensor.Add(dwT, dwsT)
		// dbₛ = row sums of dOut
		for oc := 0; oc < c.OutC; oc++ {
			sum := 0.0
			for _, v := range dout[oc*p : (oc+1)*p] {
				sum += v
			}
			c.db[oc] += sum
		}
		if c.noDx {
			continue
		}
		// dcols = Wᵀ · dOut, then summed back into this sample's dx
		tensor.MatMulATB(dcol[:kdim*p], c.weights, dout, c.OutC, kdim, p)
		c.col2im(dcol, c.dx[s*in.Size():(s+1)*in.Size()])
	}
	tensor.Transpose(c.dw, dwT, kdim, c.OutC)
	if c.noDx {
		return nil
	}
	return c.dx[:b*in.Size()]
}

// --- ReLU ------------------------------------------------------------

// ReLU applies max(0, x) element-wise with tensor.ReLU and
// tensor.ReLUGrad: branch-free kernels that agree with the comparison
// `x > 0` on every input but one — a NaN with a clear sign bit passes
// through Forward (and lets dy through Backward) where the comparison
// would give 0.
type ReLU struct {
	lastX []float64
	out   []float64
	dx    []float64
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

func (r *ReLU) Name() string                     { return "relu" }
func (r *ReLU) OutShape(in Shape) Shape          { return in }
func (r *ReLU) ParamCount(in Shape) int          { return 0 }
func (r *ReLU) Bind(Shape, []float64, []float64) {}
func (r *ReLU) Init(*rand.Rand)                  {}
func (r *ReLU) clone() Layer                     { return NewReLU() }
func (r *ReLU) setParams([]float64, []float64)   {}

func (r *ReLU) Forward(x []float64, b int) []float64 {
	if cap(r.out) < len(x) {
		r.out = make([]float64, len(x))
	}
	out := r.out[:len(x)]
	tensor.ReLU(out, x)
	r.lastX = x
	return out
}

func (r *ReLU) Backward(dy []float64, b int) []float64 {
	if cap(r.dx) < len(dy) {
		r.dx = make([]float64, len(dy))
	}
	dx := r.dx[:len(dy)]
	tensor.ReLUGrad(dx, r.lastX, dy)
	return dx
}

// --- MaxPool ---------------------------------------------------------

// MaxPool2 is 2×2 max pooling with stride 2. Input H and W must be
// even.
type MaxPool2 struct {
	in     Shape
	plan   []int32 // per output of a sample: its window's top-left cell
	argmax []int
	out    []float64
	dx     []float64
}

// NewMaxPool2 returns a 2×2/stride-2 max-pooling layer.
func NewMaxPool2() *MaxPool2 { return &MaxPool2{} }

func (m *MaxPool2) Name() string { return "maxpool2" }

func (m *MaxPool2) OutShape(in Shape) Shape {
	if in.H%2 != 0 || in.W%2 != 0 {
		panic(fmt.Sprintf("nn: MaxPool2 input %v must have even H and W", in))
	}
	return Shape{C: in.C, H: in.H / 2, W: in.W / 2}
}

func (m *MaxPool2) ParamCount(in Shape) int { return 0 }

func (m *MaxPool2) Bind(in Shape, _, _ []float64) {
	// Planes are contiguous and H is even, so a sample is one run of row
	// pairs: output o pools row pair o/ow, columns 2·(o mod ow) and one on.
	ow := m.OutShape(in).W
	m.in, m.plan = in, make([]int32, in.Size()/4)
	for o := range m.plan {
		m.plan[o] = int32(o/ow*2*in.W + o%ow*2)
	}
}

func (m *MaxPool2) Init(*rand.Rand) {}

func (m *MaxPool2) clone() Layer { return NewMaxPool2() }

func (m *MaxPool2) setParams([]float64, []float64) {}

// Forward pools each sample's windows by the plan in window order, the
// first of equal values winning and a NaN never beating a number (nor
// losing the lead): tensor.WindowMax4's rule.
func (m *MaxPool2) Forward(x []float64, b int) []float64 {
	size, n := m.in.Size(), len(m.plan)
	if cap(m.out) < b*n {
		m.out = make([]float64, b*n)
		m.argmax = make([]int, b*n)
	}
	for s := 0; s < b; s++ {
		tensor.WindowMax4(m.out[s*n:(s+1)*n], m.argmax[s*n:(s+1)*n], x[s*size:(s+1)*size], m.plan, m.in.W, s*size)
	}
	return m.out[:b*n]
}

func (m *MaxPool2) Backward(dy []float64, b int) []float64 {
	size := m.in.Size()
	if cap(m.dx) < b*size {
		m.dx = make([]float64, b*size)
	}
	dx := m.dx[:b*size]
	clear(dx)
	arg := m.argmax[:b*len(m.plan)]
	for i, g := range dy {
		dx[arg[i]] += g
	}
	return dx
}

// --- Dense -----------------------------------------------------------

// Dense is a fully connected layer; it flattens any input shape.
type Dense struct {
	Out int

	in      Shape
	weights []float64 // [Out, in.Size()]
	bias    []float64
	dw, db  []float64

	lastX []float64
	out   []float64
	dx    []float64
	dwTmp []float64

	noDx bool // first layer of its network: Backward returns nil
}

// NewDense returns a fully connected layer with out units.
func NewDense(out int) *Dense { return &Dense{Out: out} }

func (d *Dense) Name() string            { return fmt.Sprintf("dense-%d", d.Out) }
func (d *Dense) OutShape(in Shape) Shape { return Shape{C: d.Out, H: 1, W: 1} }
func (d *Dense) ParamCount(in Shape) int { return d.Out*in.Size() + d.Out }

func (d *Dense) Bind(in Shape, params, grads []float64) {
	d.in = in
	d.setParams(params, grads)
}

func (d *Dense) setParams(params, grads []float64) {
	nw := d.Out * d.in.Size()
	d.weights, d.bias = params[:nw], params[nw:]
	d.dw, d.db = grads[:nw], grads[nw:]
}

func (d *Dense) Init(rng *rand.Rand) {
	std := math.Sqrt(2 / float64(d.in.Size()))
	for i := range d.weights {
		d.weights[i] = rng.NormFloat64() * std
	}
	for i := range d.bias {
		d.bias[i] = 0
	}
}

func (d *Dense) clone() Layer { return NewDense(d.Out) }

func (d *Dense) skipInputGrad() { d.noDx = true }

func (d *Dense) Forward(x []float64, b int) []float64 {
	in := d.in.Size()
	if cap(d.out) < b*d.Out {
		d.out = make([]float64, b*d.Out)
	}
	out := d.out[:b*d.Out]
	tensor.MatMulABT(out, x, d.weights, b, in, d.Out)
	for s := 0; s < b; s++ {
		tensor.Add(out[s*d.Out:(s+1)*d.Out], d.bias)
	}
	d.lastX = x
	return out
}

func (d *Dense) Backward(dy []float64, b int) []float64 {
	in := d.in.Size()
	if cap(d.dwTmp) < len(d.dw) {
		d.dwTmp = make([]float64, len(d.dw))
	}
	dwTmp := d.dwTmp[:len(d.dw)]
	tensor.MatMulATB(dwTmp, dy, d.lastX, b, d.Out, in)
	tensor.Add(d.dw, dwTmp)
	for s := 0; s < b; s++ {
		tensor.Add(d.db, dy[s*d.Out:(s+1)*d.Out])
	}
	if d.noDx {
		return nil
	}
	if cap(d.dx) < b*in {
		d.dx = make([]float64, b*in)
	}
	dx := d.dx[:b*in]
	tensor.MatMul(dx, dy, d.weights, b, d.Out, in)
	return dx
}

// --- Architectures ---------------------------------------------------

// MiniVGG returns a small VGG-style CNN (conv-relu-pool ×2, then two
// dense layers) for the given input shape and class count. It is the
// repository's CIFAR-scale workload stand-in: real convolutional
// training dynamics at laptop cost (see DESIGN.md §1).
func MiniVGG(in Shape, classes int) *Network {
	return NewNetwork(in,
		NewConv2D(8, 3), NewReLU(), NewMaxPool2(),
		NewConv2D(16, 3), NewReLU(), NewMaxPool2(),
		NewDense(64), NewReLU(),
		NewDense(classes),
	)
}
