// Package model defines the interface between learning workloads and the
// federated optimization core.
//
// The paper's framework is model-agnostic: the server and local solvers
// only ever see a flat parameter vector w, a loss F_k(w), and a gradient
// ∇F_k(w). Keeping parameters flat makes the three operations the
// framework is built on trivial and uniform across workloads: server-side
// averaging of returned models, the proximal penalty (μ/2)·‖w − wᵗ‖², and
// the dissimilarity metric E_k‖∇F_k(w) − ∇f(w)‖².
package model

import (
	"fedprox/internal/data"
	"fedprox/internal/frand"
	"fedprox/internal/tensor"
)

// Model is a learning workload over flat parameter vectors.
//
// Implementations must be stateless with respect to parameters: every
// method takes w explicitly, so a single Model can be shared by all
// simulated devices concurrently.
type Model interface {
	// NumParams returns the length of the parameter vector.
	NumParams() int
	// InitParams returns a freshly initialized parameter vector.
	InitParams(rng *frand.Source) []float64
	// Loss returns the mean loss of w over the batch.
	Loss(w []float64, batch []data.Example) float64
	// Grad writes the mean gradient of the loss over the batch into dst
	// (overwriting it) and returns the mean loss. len(dst) must equal
	// NumParams.
	Grad(dst, w []float64, batch []data.Example) float64
	// Predict returns the predicted label for a single example.
	Predict(w []float64, ex data.Example) int
}

// Model32 is the optional float32 fast path a Model may implement. A run
// that opts into tensor.F32 requires it: the solvers' float32
// instantiation calls Grad32 on narrowed parameters, and the result is
// widened once at the reply boundary.
//
// Implementations are expected to batch: Grad32 should walk the whole
// minibatch per call (gathering examples into row-major panels) rather
// than re-entering a per-example inner loop, since the f32 mode exists
// for hot-path speed. The f64 Grad stays the reference semantics; Grad32
// must compute the same mean gradient up to float32 rounding.
type Model32 interface {
	Model
	// Grad32 writes the mean gradient of the loss over the batch into
	// dst (overwriting it) and returns the mean loss, all in float32.
	Grad32(dst, w tensor.Vec32, batch []data.Example) float32
}

// Accuracy returns the fraction of examples in batch that m predicts
// correctly under parameters w. It returns 0 for an empty batch.
func Accuracy(m Model, w []float64, batch []data.Example) float64 {
	if len(batch) == 0 {
		return 0
	}
	correct := 0
	for _, ex := range batch {
		if m.Predict(w, ex) == ex.Y {
			correct++
		}
	}
	return float64(correct) / float64(len(batch))
}
