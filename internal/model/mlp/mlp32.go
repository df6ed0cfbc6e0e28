package mlp

import (
	"fedprox/internal/data"
	"fedprox/internal/model"
	"fedprox/internal/tensor"
)

var _ model.Model32 = (*Model)(nil)

// Grad32 is the batched float32 backpropagation: one activation panel
// per layer (B×width, pooled), forward as panel·Wᵀ multiplies, and the
// backward pass pushing a whole B×width delta panel through each layer —
// so every weight row is streamed against the full minibatch instead of
// re-entering the per-example rank-one loop of the f64 Grad.
func (m *Model) Grad32(dst, w tensor.Vec32, batch []data.Example) float32 {
	if len(dst) != m.nParams {
		panic("mlp: gradient buffer size mismatch")
	}
	tensor.Zero(dst)
	if len(batch) == 0 {
		return 0
	}
	B := len(batch)
	L := len(m.offsets)

	// A[l] holds the layer-l activations for the whole batch: A[0] the
	// narrowed inputs, A[1..L-1] tanh outputs, A[L] logits-then-probs.
	bufs := make([]tensor.Vec32, L+1)
	A := make([]tensor.Mat32, L+1)
	for l := 0; l <= L; l++ {
		bufs[l] = tensor.GetVec32(B * m.sizes[l])
		A[l] = tensor.MatView(bufs[l], B, m.sizes[l])
	}
	for e, ex := range batch {
		tensor.Narrow(A[0].Row(e), ex.X)
	}
	for l := 0; l < L; l++ {
		W, b := layer(m, w, l)
		tensor.MatMulNT32(A[l+1], A[l], W, b)
		if l < L-1 {
			out := bufs[l+1]
			for i, v := range out {
				out[i] = tensor.Tanh32(v)
			}
		}
	}

	var total float32
	for e, ex := range batch {
		row := A[L].Row(e)
		total += tensor.CrossEntropySoftmax32(row, row, ex.Y)
		row[ex.Y] -= 1
	}

	inv := 1 / float32(B)
	delta := A[L] // dL/dlogits panel; aliases bufs[L]
	var spent tensor.Vec32
	for l := L - 1; l >= 0; l-- {
		W, _ := layer(m, w, l)
		gW, gb := layer(m, dst, l)
		tensor.AddOuterPanel32(gW, inv, delta, A[l])
		for e := 0; e < B; e++ {
			tensor.Axpy(inv, delta.Row(e), gb)
		}
		if l == 0 {
			break
		}
		// dL/d(activation of layer l-1): delta·W, then through tanh'.
		next := tensor.GetVec32(B * m.offsets[l].in)
		D := tensor.MatView(next, B, m.offsets[l].in)
		tensor.MatMul32(D, delta, W)
		h := bufs[l] // tanh outputs of layer l-1, same B×in layout
		for i, v := range next {
			next[i] = v * (1 - h[i]*h[i])
		}
		if spent != nil {
			tensor.PutVec(spent)
		}
		spent = next
		delta = D
	}
	if spent != nil {
		tensor.PutVec(spent)
	}
	for l := range bufs {
		tensor.PutVec(bufs[l])
	}
	return total * inv
}
