// Package mlp implements a multi-layer perceptron with tanh hidden
// activations and a softmax head, with manual backpropagation.
//
// The paper's convex experiments use multinomial logistic regression; the
// FedProx framework itself is model-agnostic and its analysis explicitly
// covers non-convex F_k (Theorem 4). This package provides the natural
// non-convex counterpart for the dense-input datasets, used by the
// ext-nonconvex ablation to show the straggler and proximal results
// survive non-convexity on the same data.
//
// Parameters are flat: for each layer, W (out×in) row-major then b (out).
package mlp

import (
	"math"

	"fedprox/internal/data"
	"fedprox/internal/frand"
	"fedprox/internal/model"
	"fedprox/internal/tensor"
)

// Model is a dense feed-forward classifier.
type Model struct {
	// sizes is [in, hidden..., classes].
	sizes   []int
	offsets []layerOffsets
	nParams int
}

type layerOffsets struct {
	w, b    int
	in, out int
}

var _ model.Model = (*Model)(nil)

// New returns an MLP with the given layer sizes: input dimension, one or
// more hidden widths, and the class count last.
func New(sizes ...int) *Model {
	if len(sizes) < 2 {
		panic("mlp: need at least input and output sizes")
	}
	for _, s := range sizes {
		if s <= 0 {
			panic("mlp: non-positive layer size")
		}
	}
	if sizes[len(sizes)-1] < 2 {
		panic("mlp: need at least 2 classes")
	}
	m := &Model{sizes: append([]int(nil), sizes...)}
	off := 0
	for l := 0; l+1 < len(sizes); l++ {
		lo := layerOffsets{in: sizes[l], out: sizes[l+1], w: off}
		off += lo.in * lo.out
		lo.b = off
		off += lo.out
		m.offsets = append(m.offsets, lo)
	}
	m.nParams = off
	return m
}

// ForDataset returns an MLP sized for a dense federated dataset with the
// given hidden widths.
func ForDataset(f *data.Federated, hidden ...int) *Model {
	if f.FeatureDim == 0 {
		panic("mlp: dataset is not dense")
	}
	sizes := append([]int{f.FeatureDim}, hidden...)
	sizes = append(sizes, f.NumClasses)
	return New(sizes...)
}

// NumParams returns the flat parameter count.
func (m *Model) NumParams() int { return m.nParams }

// InitParams returns Glorot-normal initialized weights with zero biases.
func (m *Model) InitParams(rng *frand.Source) []float64 {
	w := make([]float64, m.nParams)
	for _, lo := range m.offsets {
		std := math.Sqrt(2 / float64(lo.in+lo.out))
		rng.NormVec(w[lo.w:lo.w+lo.in*lo.out], 0, std)
	}
	return w
}

// layer returns layer l's weight-matrix and bias views of w.
func layer[F tensor.Float](m *Model, w []F, l int) (tensor.Matrix[F], []F) {
	lo := m.offsets[l]
	return tensor.MatView(w[lo.w:lo.w+lo.in*lo.out], lo.out, lo.in), w[lo.b : lo.b+lo.out]
}

// forward computes logits; when acts is non-nil it records the
// post-activation output of every hidden layer (acts[0] is the input).
func (m *Model) forward(w []float64, x []float64, acts [][]float64, logits []float64) {
	cur := x
	for l := 0; l < len(m.offsets); l++ {
		W, b := layer(m, w, l)
		last := l == len(m.offsets)-1
		var out []float64
		if last {
			out = logits
		} else {
			out = make([]float64, m.offsets[l].out)
		}
		tensor.MatVecAdd(out, W, cur, b)
		if !last {
			for i := range out {
				out[i] = math.Tanh(out[i])
			}
		}
		if acts != nil {
			acts[l] = cur
		}
		cur = out
	}
}

// Loss returns mean cross-entropy over the batch.
func (m *Model) Loss(w []float64, batch []data.Example) float64 {
	if len(batch) == 0 {
		return 0
	}
	if len(w) != m.nParams {
		panic("mlp: parameter vector size mismatch")
	}
	logits := make([]float64, m.sizes[len(m.sizes)-1])
	total := 0.0
	for _, ex := range batch {
		m.forward(w, ex.X, nil, logits)
		total += tensor.LogSumExp(logits) - logits[ex.Y]
	}
	return total / float64(len(batch))
}

// Grad writes the mean gradient into dst and returns the mean loss.
func (m *Model) Grad(dst, w []float64, batch []data.Example) float64 {
	if len(dst) != m.nParams {
		panic("mlp: gradient buffer size mismatch")
	}
	tensor.Zero(dst)
	if len(batch) == 0 {
		return 0
	}
	classes := m.sizes[len(m.sizes)-1]
	logits := make([]float64, classes)
	probs := make([]float64, classes)
	nLayers := len(m.offsets)
	acts := make([][]float64, nLayers)
	total := 0.0
	inv := 1 / float64(len(batch))
	for _, ex := range batch {
		m.forward(w, ex.X, acts, logits)
		total += tensor.LogSumExp(logits) - logits[ex.Y]
		tensor.Softmax(probs, logits)
		probs[ex.Y] -= 1

		// Backprop: delta starts as dL/dlogits.
		delta := probs
		for l := nLayers - 1; l >= 0; l-- {
			W, _ := layer(m, w, l)
			gW, gb := layer(m, dst, l)
			tensor.AddOuter(gW, inv, delta, acts[l])
			tensor.Axpy(inv, delta, gb)
			if l == 0 {
				break
			}
			// dL/d(activation of layer l-1) through Wᵀ, then through tanh'.
			prev := make([]float64, m.offsets[l].in)
			tensor.MatTVec(prev, W, delta)
			h := acts[l] // tanh outputs of layer l-1
			for i := range prev {
				prev[i] *= 1 - h[i]*h[i]
			}
			delta = prev
		}
	}
	return total * inv
}

// Predict returns the argmax class for one example.
func (m *Model) Predict(w []float64, ex data.Example) int {
	logits := make([]float64, m.sizes[len(m.sizes)-1])
	m.forward(w, ex.X, nil, logits)
	return tensor.ArgMax(logits)
}
