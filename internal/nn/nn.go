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
// needs) and are not safe for concurrent use; each worker owns its own
// network clone.
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

// inputGradSkipper is implemented by layers that pay for dLoss/dIn
// separately from their parameter gradients; NewNetwork tells its first
// layer to leave it out.
type inputGradSkipper interface{ skipInputGrad() }

// Network is a sequential stack of layers with a flat parameter store.
type Network struct {
	in      Shape
	classes int
	layers  []Layer
	params  []float64
	grads   []float64

	// scratch for the softmax cross-entropy head
	probs []float64
}

// NewNetwork builds a network for input shape in, ending with a
// softmax cross-entropy head over the output of the last layer (whose
// output size defines the number of classes).
func NewNetwork(in Shape, layers ...Layer) *Network {
	n := &Network{in: in, layers: layers}
	shape := in
	total := 0
	for _, l := range layers {
		total += l.ParamCount(shape)
		shape = l.OutShape(shape)
	}
	if shape.H != 1 || shape.W != 1 {
		panic(fmt.Sprintf("nn: final layer output %v is not a class vector", shape))
	}
	n.classes = shape.C
	n.params = make([]float64, total)
	n.grads = make([]float64, total)
	shape = in
	off := 0
	for _, l := range layers {
		c := l.ParamCount(shape)
		l.Bind(shape, n.params[off:off+c], n.grads[off:off+c])
		off += c
		shape = l.OutShape(shape)
	}
	if len(layers) > 0 {
		if l, ok := layers[0].(inputGradSkipper); ok {
			l.skipInputGrad()
		}
	}
	return n
}

// Init initializes all parameters with the given RNG.
func (n *Network) Init(rng *rand.Rand) {
	for _, l := range n.layers {
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
func (n *Network) Classes() int { return n.classes }

// Forward runs the network and returns the logits for b samples.
func (n *Network) Forward(x []float64, b int) []float64 {
	if len(x) != b*n.in.Size() {
		panic(fmt.Sprintf("nn: input length %d for batch %d of %v", len(x), b, n.in))
	}
	for _, l := range n.layers {
		x = l.Forward(x, b)
	}
	return x
}

// Loss returns the mean softmax cross-entropy of the batch without
// touching gradients.
func (n *Network) Loss(x []float64, labels []int, b int) float64 {
	logits := n.Forward(x, b)
	loss, _ := n.softmax(logits, labels, b, false)
	return loss
}

// LossGrad runs forward and backward, overwriting the gradient buffer
// with batch-averaged gradients, and returns the mean loss.
func (n *Network) LossGrad(x []float64, labels []int, b int) float64 {
	tensor.Fill(n.grads, 0)
	logits := n.Forward(x, b)
	loss, dy := n.softmax(logits, labels, b, true)
	for i := len(n.layers) - 1; i >= 0; i-- {
		dy = n.layers[i].Backward(dy, b)
	}
	return loss
}

// Accuracy returns the fraction of samples whose argmax logit matches
// the label.
func (n *Network) Accuracy(x []float64, labels []int, b int) float64 {
	logits := n.Forward(x, b)
	correct := 0
	for i := 0; i < b; i++ {
		if tensor.ArgMax(logits[i*n.classes:(i+1)*n.classes]) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(b)
}

// softmax computes mean cross-entropy and, when wantGrad, the gradient
// of the loss with respect to the logits (already divided by b).
func (n *Network) softmax(logits []float64, labels []int, b int, wantGrad bool) (float64, []float64) {
	c := n.classes
	if len(labels) != b {
		panic(fmt.Sprintf("nn: %d labels for batch %d", len(labels), b))
	}
	if cap(n.probs) < b*c {
		n.probs = make([]float64, b*c)
	}
	probs := n.probs[:b*c]
	loss := 0.0
	for i := 0; i < b; i++ {
		row := logits[i*c : (i+1)*c]
		prow := probs[i*c : (i+1)*c]
		max := row[0]
		for _, v := range row[1:] {
			if v > max {
				max = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - max)
			prow[j] = e
			sum += e
		}
		for j := range prow {
			prow[j] /= sum
		}
		p := prow[labels[i]]
		if p < 1e-300 {
			p = 1e-300
		}
		loss -= math.Log(p)
	}
	loss /= float64(b)
	if !wantGrad {
		return loss, nil
	}
	inv := 1 / float64(b)
	for i := 0; i < b; i++ {
		prow := probs[i*c : (i+1)*c]
		for j := range prow {
			prow[j] *= inv
		}
		prow[labels[i]] -= inv
	}
	return loss, probs
}

// Clone returns a new network with the same architecture and a copy of
// the current parameters. Layer scratch state is not shared.
func (n *Network) Clone() *Network {
	layers := make([]Layer, len(n.layers))
	for i, l := range n.layers {
		layers[i] = l.(cloner).clone()
	}
	c := NewNetwork(n.in, layers...)
	copy(c.params, n.params)
	return c
}

type cloner interface{ clone() Layer }
