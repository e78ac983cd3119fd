// Package model bridges the concrete workloads (CNN and SVM) into the
// uniform interface the training protocols consume: a flat parameter
// vector, a stochastic gradient step, an optimizer application, and a
// held-out evaluation loss.
//
// Each worker owns a Trainer replica (same initial parameters, private
// momentum state), which is exactly the paper's setup: every worker
// maintains its own copy of the model starting from p0.
package model

import (
	"math/rand"

	"hop/internal/data"
	"hop/internal/nn"
	"hop/internal/opt"
	"hop/internal/svm"
)

// Trainer is one worker's view of the learning problem.
// Implementations are not safe for concurrent use; clone one per
// worker.
type Trainer interface {
	// Params returns the flat parameter vector (aliased). Protocols
	// overwrite it during Reduce.
	Params() []float64
	// ComputeGrad samples a mini-batch with rng, computes the
	// batch-averaged gradient at the current parameters, and returns
	// the gradient (aliased internal buffer, valid until the next
	// call) together with the training loss.
	ComputeGrad(rng *rand.Rand) ([]float64, float64)
	// Apply performs one optimizer step on the current parameters
	// with the given gradient.
	Apply(grads []float64)
	// ResetOptimizer clears momentum state (used after a
	// skip-iterations jump replaces the parameters wholesale).
	ResetOptimizer()
	// EvalLoss returns the loss on the fixed held-out evaluation
	// batch.
	EvalLoss() float64
	// Clone returns an independent replica with identical current
	// parameters and fresh optimizer state.
	Clone() Trainer
}

// --- CNN workload -----------------------------------------------------

// CNNConfig describes the image-classification workload.
type CNNConfig struct {
	Channels, Height, Width int
	Classes                 int
	Noise                   float64
	BatchSize               int
	EvalSize                int
	LR, Momentum, Decay     float64
	Seed                    int64
}

// DefaultCNNConfig mirrors the paper's CNN hyper-parameters (lr 0.1,
// momentum 0.9, weight decay 1e-4) on the laptop-scale synthetic
// dataset.
func DefaultCNNConfig() CNNConfig {
	return CNNConfig{
		Channels: 3, Height: 8, Width: 8, Classes: 4, Noise: 1.0,
		BatchSize: 16, EvalSize: 128,
		LR: 0.01, Momentum: 0.9, Decay: 1e-4,
		Seed: 1,
	}
}

// CNN is the Trainer for the convolutional workload.
type CNN struct {
	cfg  CNNConfig
	net  *nn.Network
	sgd  *opt.SGD
	ds   *data.Images
	eval data.ImageBatch
	// batch is the reusable mini-batch buffer: resampling every
	// iteration must not allocate (the training hot path is
	// zero-steady-state-alloc; see DESIGN.md §3).
	batch data.ImageBatch
}

// NewCNN builds the CNN workload: a MiniVGG network, a synthetic image
// dataset, and a fixed evaluation batch.
func NewCNN(cfg CNNConfig) *CNN {
	ds := data.NewImages(cfg.Channels, cfg.Height, cfg.Width, cfg.Classes, cfg.Noise, cfg.Seed)
	net := nn.MiniVGG(nn.Shape{C: cfg.Channels, H: cfg.Height, W: cfg.Width}, cfg.Classes)
	initRng := rand.New(rand.NewSource(cfg.Seed + 1000))
	net.Init(initRng)
	evalRng := rand.New(rand.NewSource(cfg.Seed + 2000))
	return &CNN{
		cfg:  cfg,
		net:  net,
		sgd:  opt.NewSGD(net.NumParams(), cfg.LR, cfg.Momentum, cfg.Decay),
		ds:   ds,
		eval: ds.Sample(evalRng, cfg.EvalSize),
	}
}

// Params implements Trainer.
func (c *CNN) Params() []float64 { return c.net.Params() }

// NumParams returns the model's parameter count.
func (c *CNN) NumParams() int { return c.net.NumParams() }

// ComputeGrad implements Trainer.
func (c *CNN) ComputeGrad(rng *rand.Rand) ([]float64, float64) {
	c.ds.SampleInto(&c.batch, rng, c.cfg.BatchSize)
	loss := c.net.LossGrad(c.batch.X, c.batch.Labels, c.batch.B)
	return c.net.Grads(), loss
}

// Apply implements Trainer.
func (c *CNN) Apply(grads []float64) { c.sgd.Step(c.net.Params(), grads) }

// ResetOptimizer implements Trainer.
func (c *CNN) ResetOptimizer() { c.sgd.Reset() }

// EvalLoss implements Trainer.
func (c *CNN) EvalLoss() float64 {
	return c.net.Loss(c.eval.X, c.eval.Labels, c.eval.B)
}

// EvalAccuracy returns held-out accuracy (used by examples).
func (c *CNN) EvalAccuracy() float64 {
	return c.net.Accuracy(c.eval.X, c.eval.Labels, c.eval.B)
}

// Clone implements Trainer. The clone shares the (read-only) dataset
// and eval batch, copies parameters, and gets fresh momentum. It also
// shares the network's workspaces (nn.Network): a replica keeps its
// parameters, gradients, momentum and batch buffer, and the layer
// scratch a step or an evaluation runs in belongs to the running call.
func (c *CNN) Clone() Trainer {
	return &CNN{cfg: c.cfg, net: c.net.Clone(), sgd: c.sgd.Clone(), ds: c.ds, eval: c.eval}
}

// --- SVM workload ------------------------------------------------------

// SVMConfig describes the sparse linear workload.
type SVMConfig struct {
	Features, NNZ       int
	Flip                float64
	BatchSize, EvalSize int
	LR, Momentum, Decay float64
	Seed                int64
}

// DefaultSVMConfig mirrors the paper's SVM hyper-parameters (momentum
// 0.9, weight decay 1e-7, log loss) at synthetic-webspam scale. The
// paper's lr of 10 assumes the real webspam normalization; the
// synthetic generator is calibrated for lr 1.
func DefaultSVMConfig() SVMConfig {
	return SVMConfig{
		Features: 4096, NNZ: 24, Flip: 0.05,
		BatchSize: 32, EvalSize: 256,
		LR: 0.2, Momentum: 0.9, Decay: 1e-7,
		Seed: 2,
	}
}

// SVM is the Trainer for the sparse linear workload.
type SVM struct {
	cfg   SVMConfig
	m     *svm.Model
	sgd   *opt.SGD
	ds    *data.Webspam
	eval  data.SpamBatch
	grads []float64
	// batch is the reusable mini-batch buffer (see CNN.batch).
	batch data.SpamBatch
}

// NewSVM builds the SVM workload.
func NewSVM(cfg SVMConfig) *SVM {
	ds := data.NewWebspam(cfg.Features, cfg.NNZ, cfg.Flip, cfg.Seed)
	evalRng := rand.New(rand.NewSource(cfg.Seed + 2000))
	return &SVM{
		cfg:   cfg,
		m:     svm.New(cfg.Features),
		sgd:   opt.NewSGD(cfg.Features, cfg.LR, cfg.Momentum, cfg.Decay),
		ds:    ds,
		eval:  ds.Sample(evalRng, cfg.EvalSize),
		grads: make([]float64, cfg.Features),
	}
}

// Params implements Trainer.
func (s *SVM) Params() []float64 { return s.m.Params() }

// NumParams returns the feature dimension.
func (s *SVM) NumParams() int { return s.m.NumParams() }

// ComputeGrad implements Trainer.
func (s *SVM) ComputeGrad(rng *rand.Rand) ([]float64, float64) {
	s.ds.SampleInto(&s.batch, rng, s.cfg.BatchSize)
	loss := s.m.LossGrad(s.batch, s.grads)
	return s.grads, loss
}

// Apply implements Trainer.
func (s *SVM) Apply(grads []float64) { s.sgd.Step(s.m.Params(), grads) }

// ResetOptimizer implements Trainer.
func (s *SVM) ResetOptimizer() { s.sgd.Reset() }

// EvalLoss implements Trainer.
func (s *SVM) EvalLoss() float64 { return s.m.Loss(s.eval) }

// EvalAccuracy returns held-out accuracy (used by examples).
func (s *SVM) EvalAccuracy() float64 { return s.m.Accuracy(s.eval) }

// Clone implements Trainer.
func (s *SVM) Clone() Trainer {
	c := &SVM{cfg: s.cfg, m: s.m.Clone(), sgd: s.sgd.Clone(), ds: s.ds, eval: s.eval, grads: make([]float64, s.cfg.Features)}
	return c
}
