// Package nn implements a from-scratch convolutional neural network
// with backpropagation, standing in for the paper's VGG11/CIFAR-10
// workload (TensorFlow is not available; see DESIGN.md §1).
//
// All parameters of a network live in one flat []float64 buffer, with
// layers binding sub-slices of it. Decentralized training averages
// whole parameter vectors, so this layout makes the protocol's Reduce
// a single tensor operation and keeps the protocol code independent of
// model structure. Gradients use an identically-shaped flat buffer.
//
// The implementation is deliberately straightforward (im2col
// convolutions, dense matmuls) and verified against numerical
// differentiation in the package tests.
package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"hop/internal/tensor"
)

// Shape describes an activation tensor as channels × height × width.
// Fully-connected activations use H = W = 1.
type Shape struct{ C, H, W int }

// Size returns the number of elements per sample.
func (s Shape) Size() int { return s.C * s.H * s.W }

func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.C, s.H, s.W) }

// Layer is one differentiable stage of a network. Layers are stateful
// across a Forward/Backward pair (they retain the activations backward
// needs) and are not safe for concurrent use. A network's layers belong
// to its workspaces, not to the network: each running call has a set to
// itself (see Network).
type Layer interface {
	// Name identifies the layer in diagnostics.
	Name() string
	// OutShape returns the output shape for the given input shape.
	OutShape(in Shape) Shape
	// ParamCount returns the number of parameters the layer owns.
	ParamCount(in Shape) int
	// Bind hands the layer its parameter and gradient sub-slices.
	Bind(in Shape, params, grads []float64)
	// Init writes initial parameter values.
	Init(rng *rand.Rand)
	// Forward computes the layer output for a batch of b samples.
	Forward(x []float64, b int) []float64
	// Backward consumes dLoss/dOut and returns dLoss/dIn, accumulating
	// parameter gradients into the bound gradient slice. A network's
	// first layer may return nil: nothing reads the input's gradient.
	Backward(dy []float64, b int) []float64
}

// wsLayer is what a workspace needs of a layer beyond Layer: a copy of
// its architecture holding no scratch, and a rebind to another replica's
// parameters and gradients that moves slice headers only.
type wsLayer interface {
	Layer
	clone() Layer
	setParams(params, grads []float64)
}

// inputGradSkipper is implemented by layers that pay for dLoss/dIn
// separately from their parameter gradients; a workspace tells its
// first layer to leave it out.
type inputGradSkipper interface{ skipInputGrad() }

// evalChunk is the most samples Loss and Accuracy forward at once: the
// CNN workload's training batch, so an evaluation runs in the scratch
// the training steps have grown, however large its batch.
const evalChunk = 16

// Network is one replica of a sequential stack of layers: a flat
// parameter store and its gradient. The layers themselves, with every
// activation and scratch buffer a pass needs, live in workspaces the
// network shares with its clones — its family. LossGrad, Loss, Accuracy
// and Init take a free workspace, point its layers at this replica's
// parameters and gradients, and put it back before they return, so a
// family holds as many workspaces as its calls ever ran at once, however
// many replicas it has. Clones may run concurrently; one network may not.
type Network struct {
	params []float64
	grads  []float64
	fam    *family
}

// family is what a network and its clones share.
type family struct {
	in      Shape
	classes int
	offs    []int     // layer i binds params[offs[i]:offs[i+1]]
	proto   []wsLayer // NewNetwork's layers, which a new workspace clones

	mu   sync.Mutex
	free []*workspace // last in, first out: the warmest set is taken next
}

// workspace is one full set of a family's layers, their scratch sized
// by the largest batch the set has run, and the softmax head's
// probabilities.
type workspace struct {
	layers []wsLayer
	probs  []float64
}

// NewNetwork builds a network for input shape in, ending with a
// softmax cross-entropy head over the output of the last layer (whose
// output size defines the number of classes). The layers, which must be
// this package's, become the family's first workspace.
func NewNetwork(in Shape, layers ...Layer) *Network {
	f := &family{in: in, offs: make([]int, len(layers)+1)}
	ws := &workspace{layers: make([]wsLayer, len(layers))}
	shape := in
	for i, l := range layers {
		wl, ok := l.(wsLayer)
		if !ok {
			panic(fmt.Sprintf("nn: layer %s cannot join a workspace", l.Name()))
		}
		ws.layers[i] = wl
		f.offs[i+1] = f.offs[i] + l.ParamCount(shape)
		shape = l.OutShape(shape)
	}
	if shape.H != 1 || shape.W != 1 {
		panic(fmt.Sprintf("nn: final layer output %v is not a class vector", shape))
	}
	f.classes, f.proto = shape.C, ws.layers
	total := f.offs[len(layers)]
	n := &Network{params: make([]float64, total), grads: make([]float64, total), fam: f}
	f.setUp(ws, n)
	f.free = append(f.free, ws)
	return n
}

// setUp binds a new workspace's layers to their input shapes and to n's
// parameters, and tells the first layer to skip the input gradient.
func (f *family) setUp(ws *workspace, n *Network) {
	shape := f.in
	for i, l := range ws.layers {
		l.Bind(shape, n.params[f.offs[i]:f.offs[i+1]], n.grads[f.offs[i]:f.offs[i+1]])
		shape = l.OutShape(shape)
	}
	if len(ws.layers) > 0 {
		if l, ok := ws.layers[0].(inputGradSkipper); ok {
			l.skipInputGrad()
		}
	}
}

// get takes the most recently returned workspace, or makes one when
// every workspace is in use, and points it at n's parameters. A
// workspace made here joins the family when put back.
func (f *family) get(n *Network) *workspace {
	f.mu.Lock()
	if k := len(f.free); k > 0 {
		ws := f.free[k-1]
		f.free = f.free[:k-1]
		f.mu.Unlock()
		for i, l := range ws.layers {
			l.setParams(n.params[f.offs[i]:f.offs[i+1]], n.grads[f.offs[i]:f.offs[i+1]])
		}
		return ws
	}
	f.mu.Unlock()
	ws := &workspace{layers: make([]wsLayer, len(f.proto))}
	for i, l := range f.proto {
		ws.layers[i] = l.clone().(wsLayer)
	}
	f.setUp(ws, n)
	return ws
}

// put returns a workspace to the free list.
func (f *family) put(ws *workspace) {
	f.mu.Lock()
	f.free = append(f.free, ws)
	f.mu.Unlock()
}

// Init initializes all parameters with the given RNG.
func (n *Network) Init(rng *rand.Rand) {
	ws := n.fam.get(n)
	defer n.fam.put(ws)
	for _, l := range ws.layers {
		l.Init(rng)
	}
}

// Params returns the flat parameter vector (aliased, not copied).
func (n *Network) Params() []float64 { return n.params }

// Grads returns the flat gradient vector (aliased, not copied).
func (n *Network) Grads() []float64 { return n.grads }

// NumParams returns the total parameter count.
func (n *Network) NumParams() int { return len(n.params) }

// Classes returns the number of output classes.
func (n *Network) Classes() int { return n.fam.classes }

// check panics unless x and labels hold a batch of b samples.
func (n *Network) check(x []float64, labels []int, b int) {
	if len(x) != b*n.fam.in.Size() {
		panic(fmt.Sprintf("nn: input length %d for batch %d of %v", len(x), b, n.fam.in))
	}
	if len(labels) != b {
		panic(fmt.Sprintf("nn: %d labels for batch %d", len(labels), b))
	}
}

// forward runs the workspace's layers and returns the logits for b
// samples, in the last layer's scratch.
func (ws *workspace) forward(x []float64, b int) []float64 {
	for _, l := range ws.layers {
		x = l.Forward(x, b)
	}
	return x
}

// Loss returns the mean softmax cross-entropy of the batch without
// touching gradients. The batch streams through the workspace evalChunk
// samples at a time, each sample's −log p joining one running sum in
// sample order that is divided by b once: the whole batch's bits.
func (n *Network) Loss(x []float64, labels []int, b int) float64 {
	n.check(x, labels, b)
	ws := n.fam.get(n)
	defer n.fam.put(ws)
	size := n.fam.in.Size()
	sum := 0.0
	for s := 0; s < b; s += evalChunk {
		k := min(evalChunk, b-s)
		sum = ws.softmax(ws.forward(x[s*size:(s+k)*size], k), labels[s:s+k], n.fam.classes, sum)
	}
	return sum / float64(b)
}

// LossGrad runs forward and backward, overwriting the gradient buffer
// with batch-averaged gradients, and returns the mean loss.
func (n *Network) LossGrad(x []float64, labels []int, b int) float64 {
	n.check(x, labels, b)
	ws := n.fam.get(n)
	defer n.fam.put(ws)
	tensor.Fill(n.grads, 0)
	c := n.fam.classes
	loss := ws.softmax(ws.forward(x, b), labels, c, 0) / float64(b)
	// dLoss/dLogits = (probs − onehot) / b, in place
	dy := ws.probs[:b*c]
	inv := 1 / float64(b)
	for i := 0; i < b; i++ {
		prow := dy[i*c : (i+1)*c]
		for j := range prow {
			prow[j] *= inv
		}
		prow[labels[i]] -= inv
	}
	for i := len(ws.layers) - 1; i >= 0; i-- {
		dy = ws.layers[i].Backward(dy, b)
	}
	return loss
}

// Accuracy returns the fraction of samples whose argmax logit matches
// the label, forwarding evalChunk samples at a time.
func (n *Network) Accuracy(x []float64, labels []int, b int) float64 {
	n.check(x, labels, b)
	ws := n.fam.get(n)
	defer n.fam.put(ws)
	size, c := n.fam.in.Size(), n.fam.classes
	correct := 0
	for s := 0; s < b; s += evalChunk {
		k := min(evalChunk, b-s)
		logits := ws.forward(x[s*size:(s+k)*size], k)
		for i := 0; i < k; i++ {
			if tensor.ArgMax(logits[i*c:(i+1)*c]) == labels[s+i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(b)
}

// softmax writes the class probabilities of len(labels) samples' logits
// (c classes each) into ws.probs and returns sum less each sample's
// −log p of its label, subtracted in sample order.
func (ws *workspace) softmax(logits []float64, labels []int, c int, sum float64) float64 {
	b := len(labels)
	if cap(ws.probs) < b*c {
		ws.probs = make([]float64, b*c)
	}
	probs := ws.probs[:b*c]
	for i := 0; i < b; i++ {
		row := logits[i*c : (i+1)*c]
		prow := probs[i*c : (i+1)*c]
		max := row[0]
		for _, v := range row[1:] {
			if v > max {
				max = v
			}
		}
		total := 0.0
		for j, v := range row {
			e := math.Exp(v - max)
			prow[j] = e
			total += e
		}
		for j := range prow {
			prow[j] /= total
		}
		p := prow[labels[i]]
		if p < 1e-300 {
			p = 1e-300
		}
		sum -= math.Log(p)
	}
	return sum
}

// Clone returns a new replica of the network: a copy of the current
// parameters, its own gradient buffer, and the same family of
// workspaces.
func (n *Network) Clone() *Network {
	return &Network{params: tensor.Clone(n.params), grads: make([]float64, len(n.grads)), fam: n.fam}
}
