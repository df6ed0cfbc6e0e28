package linear

import (
	"fedprox/internal/data"
	"fedprox/internal/model"
	"fedprox/internal/tensor"
)

var _ model.Model32 = (*Model)(nil)

// Grad32 is the batched float32 gradient: the minibatch is gathered into
// a row-major B×Dim panel once, the forward pass is one panel·Wᵀ
// multiply, softmax and loss share a single exp pass per example, and
// the weight gradient accumulates each of its rows across the whole
// batch while the row is hot (AddOuterPanel32) — versus the f64 path's
// per-example GEMV + two exp passes + rank-one update.
func (m *Model) Grad32(dst, w tensor.Vec32, batch []data.Example) float32 {
	if len(dst) != m.NumParams() {
		panic("linear: gradient buffer size mismatch")
	}
	tensor.Zero(dst)
	if len(batch) == 0 {
		return 0
	}
	B := len(batch)
	W, b := split(m, w)
	gW, gb := split(m, dst)

	xbuf := tensor.GetVec32(B * m.Dim)
	X := tensor.MatView(xbuf, B, m.Dim)
	for e, ex := range batch {
		tensor.Narrow(X.Row(e), ex.X)
	}
	pbuf := tensor.GetVec32(B * m.Classes)
	P := tensor.MatView(pbuf, B, m.Classes)

	tensor.MatMulNT32(P, X, W, b) // logits panel
	var total float32
	for e, ex := range batch {
		row := P.Row(e)
		total += tensor.CrossEntropySoftmax32(row, row, ex.Y)
		row[ex.Y] -= 1 // p − onehot(y)
	}
	inv := 1 / float32(B)
	tensor.AddOuterPanel32(gW, inv, P, X)
	for e := 0; e < B; e++ {
		tensor.Axpy(inv, P.Row(e), gb)
	}
	tensor.PutVec(pbuf)
	tensor.PutVec(xbuf)
	return total * inv
}
