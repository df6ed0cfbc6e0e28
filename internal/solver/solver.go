// Package solver implements the local solvers devices run on their
// subproblems.
//
// The FedProx framework is solver-agnostic (Section 3.2): a device may use
// any procedure that produces a γ-inexact solution of
//
//	h_k(w; wᵗ) = F_k(w) + (μ/2)·‖w − wᵗ‖²
//
// This package provides the solvers the paper evaluates — mini-batch SGD
// (the FedAvg solver, and the FedProx solver with the proximal gradient
// term added) and full gradient descent — plus the γ-inexactness
// measurement of Definitions 1 and 2. A configurable linear correction
// term supports the FedDane baseline (Appendix B), whose local objective
// adds ⟨∇f(wᵗ) − ∇F_k(wᵗ), w⟩ to h_k.
package solver

import (
	"fedprox/internal/data"
	"fedprox/internal/frand"
	"fedprox/internal/model"
	"fedprox/internal/tensor"
)

// Config are the hyperparameters of a local solve.
type Config struct {
	// LearningRate is the SGD step size η. The paper tunes it per dataset
	// on FedAvg and reuses it for all methods.
	LearningRate float64
	// BatchSize is the mini-batch size (paper: 10).
	BatchSize int
	// Mu is the proximal coefficient μ; 0 recovers the FedAvg subproblem.
	Mu float64
	// Correction, when non-nil, is a constant vector added to every
	// stochastic gradient (the FedDane gradient-correction term). It must
	// have the model's parameter length.
	Correction []float64
}

// SGD runs epochs passes of mini-batch SGD on the device subproblem
// h(w; w0) starting from w0 and returns the resulting parameters. Batch
// order is drawn from rng, so fixing rng fixes mini-batch order across
// compared runs, per the paper's protocol — at either width, since the
// draws do not depend on F.
//
// Each step takes w ← w − η·(∇F(w; batch) + μ·(w − w0) + correction).
// At float32 the model must implement model.Model32 and Correction must
// be nil (the FedDane correction stays on the float64 path).
//
// The returned slice is exclusively the caller's: it comes from the
// tensor pool, and callers that do not retain it should hand it back
// with tensor.PutVec.
func SGD[F tensor.Float](m model.Model, train []data.Example, w0 []F, cfg Config, epochs int, rng *frand.Source) []F {
	if epochs < 0 {
		panic("solver: negative epochs")
	}
	if cfg.BatchSize <= 0 {
		panic("data: non-positive batch size")
	}
	w := tensor.Vecs[F]().Get(len(w0))
	copy(w, w0)
	grad := tensor.Vecs[F]().Get(m.NumParams())
	batch := batchPool.Get(cfg.BatchSize)[:0]
	perm := permPool.Get(len(train))
	// Batch windows are sliced straight off the epoch permutation —
	// identical draws and batches as data.Batches, without materializing
	// the per-epoch slice-of-slices. The permutation buffer is pooled:
	// identity-fill + Shuffle consumes exactly the draws rng.Perm would.
	for e := 0; e < epochs; e++ {
		for i := range perm {
			perm[i] = i
		}
		rng.Shuffle(perm)
		for start := 0; start < len(train); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(train) {
				end = len(train)
			}
			batch = batch[:0]
			for _, i := range perm[start:end] {
				batch = append(batch, train[i])
			}
			gradient(m, grad, w, batch)
			applyStep(w, grad, w0, cfg)
		}
	}
	permPool.Put(perm)
	batchPool.Put(batch)
	tensor.PutVec(grad)
	return w
}

// GD runs steps iterations of full-batch gradient descent on the device
// subproblem and returns the resulting parameters (pooled, as SGD's). It
// is the deterministic local solver used to exercise the framework's
// solver-agnosticism.
func GD[F tensor.Float](m model.Model, train []data.Example, w0 []F, cfg Config, steps int) []F {
	w := tensor.Vecs[F]().Get(len(w0))
	copy(w, w0)
	grad := tensor.Vecs[F]().Get(m.NumParams())
	for s := 0; s < steps; s++ {
		gradient(m, grad, w, train)
		applyStep(w, grad, w0, cfg)
	}
	tensor.PutVec(grad)
	return w
}

// Per-solve scratch pools: within a run every solve draws same-sized
// permutations and batches, so these converge on a handful of buffers.
var (
	permPool  tensor.Pool[int]
	batchPool tensor.Pool[data.Example]
)

// gradient writes the model's mean minibatch gradient at width F into dst
// and returns the mean loss: Model.Grad at float64, Model32.Grad32 at
// float32.
func gradient[F tensor.Float](m model.Model, dst, w []F, batch []data.Example) F {
	if d32, ok := any(dst).(tensor.Vec32); ok {
		return F(m.(model.Model32).Grad32(d32, any(w).(tensor.Vec32), batch))
	}
	return F(m.Grad(any(dst).([]float64), any(w).([]float64), batch))
}

// correction returns cfg.Correction at width F. Only the float64 path
// carries the FedDane correction.
func correction[F tensor.Float](cfg Config) []F {
	if c, ok := any(cfg.Correction).([]F); ok || cfg.Correction == nil {
		return c
	}
	panic("solver: the float32 path does not support Correction")
}

// applyStep performs w ← w − η·(grad + μ(w − w0) + correction) in place.
func applyStep[F tensor.Float](w, grad, w0 []F, cfg Config) {
	eta, mu := F(cfg.LearningRate), F(cfg.Mu)
	corr := correction[F](cfg)
	for i := range w {
		g := grad[i] + mu*(w[i]-w0[i])
		if corr != nil {
			g += corr[i]
		}
		w[i] -= eta * g
	}
}

// SubproblemGrad writes ∇h(w; w0) = ∇F(w) + μ(w − w0) + correction over the
// full local training set into dst and returns the subproblem loss
// F(w) + (μ/2)‖w − w0‖² (+ ⟨correction, w⟩ when present).
func SubproblemGrad[F tensor.Float](dst []F, m model.Model, train []data.Example, w, w0 []F, cfg Config) F {
	loss := gradient(m, dst, w, train)
	mu := F(cfg.Mu)
	corr := correction[F](cfg)
	for i := range dst {
		dst[i] += mu * (w[i] - w0[i])
		if corr != nil {
			dst[i] += corr[i]
		}
	}
	loss += 0.5 * mu * tensor.SqDist(w, w0)
	if corr != nil {
		loss += tensor.Dot(corr, w)
	}
	return loss
}

// Gamma measures the achieved inexactness of a local solution w relative
// to the starting point w0 (Definitions 1 and 2):
//
//	γ = ‖∇h(w; w0)‖ / ‖∇h(w0; w0)‖
//
// A device that did no work returns γ = 1; an exact minimizer returns
// γ = 0. When the starting point is already stationary (denominator ≈ 0)
// Gamma returns 0, matching the convention that no further progress is
// required there. Norms are finished in float64 at either width, so the
// guard has the same scale.
func Gamma[F tensor.Float](m model.Model, train []data.Example, w, w0 []F, cfg Config) float64 {
	grad := tensor.Vecs[F]().Get(m.NumParams())
	defer tensor.PutVec(grad)
	SubproblemGrad(grad, m, train, w0, w0, cfg)
	denom := tensor.Norm2(grad)
	if denom < 1e-12 {
		return 0
	}
	SubproblemGrad(grad, m, train, w, w0, cfg)
	return tensor.Norm2(grad) / denom
}
