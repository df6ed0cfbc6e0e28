// Package tensor provides the dense vector and matrix kernels that every
// model and solver in this repository is built on.
//
// All state lives in flat slices. Matrices are row-major views over a
// flat slice, which lets a whole model's parameters occupy one
// contiguous vector — the representation the federated server aggregates,
// and the representation the proximal term ‖w − wᵗ‖² is computed over.
//
// Element-wise plumbing is written once, generic over Float; float64 is
// the reference width and float32 the opt-in fast path (see Precision).
// Reductions keep one kernel per width, because their accumulation
// order fixes the bits of every pinned trajectory.
package tensor

import (
	"fmt"
	"math"
)

// Float is an element width the kernels run at.
type Float interface{ float32 | float64 }

// Vec is a dense float64 vector.
type Vec = []float64

// NewVec returns a zero vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Clone returns a copy of v.
func Clone[F Float](v []F) []F {
	out := make([]F, len(v))
	copy(out, v)
	return out
}

// Zero sets every element of v to 0.
func Zero[F Float](v []F) {
	for i := range v {
		v[i] = 0
	}
}

// Fill sets every element of v to c.
func Fill[F Float](v []F, c F) {
	for i := range v {
		v[i] = c
	}
}

// Dot returns the inner product of a and b. It panics on length
// mismatch. float64 sums serially; float32 uses four accumulators.
func Dot[F Float](a, b []F) F {
	if a32, ok := any(a).(Vec32); ok {
		return F(dot32(a32, any(b).(Vec32)))
	}
	return F(dot64(any(a).(Vec), any(b).(Vec)))
}

func dot64(a, b Vec) float64 {
	mustSameLen(len(a), len(b))
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v, accumulated at v's width and
// finished in float64.
func Norm2[F Float](v []F) float64 {
	return math.Sqrt(float64(Dot(v, v)))
}

// SqDist returns ‖a − b‖², the squared Euclidean distance — the quantity
// scaled by μ/2 in the FedProx subproblem. float64 sums serially;
// float32 uses two accumulators.
func SqDist[F Float](a, b []F) F {
	if a32, ok := any(a).(Vec32); ok {
		return F(sqDist32(a32, any(b).(Vec32)))
	}
	return F(sqDist64(any(a).(Vec), any(b).(Vec)))
}

func sqDist64(a, b Vec) float64 {
	mustSameLen(len(a), len(b))
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Axpy computes y ← y + alpha·x in place.
func Axpy[F Float](alpha F, x, y []F) {
	mustSameLen(len(x), len(y))
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xx, yy := x[i:i+4:i+4], y[i:i+4:i+4]
		yy[0] += alpha * xx[0]
		yy[1] += alpha * xx[1]
		yy[2] += alpha * xx[2]
		yy[3] += alpha * xx[3]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// Scale computes v ← alpha·v in place.
func Scale[F Float](alpha F, v []F) {
	for i := range v {
		v[i] *= alpha
	}
}

// Add computes dst ← a + b. dst may alias a or b.
func Add(dst, a, b Vec) {
	mustSameLen(len(a), len(b))
	mustSameLen(len(dst), len(a))
	for i := range a {
		dst[i] = a[i] + b[i]
	}
}

// Sub computes dst ← a − b. dst may alias a or b.
func Sub(dst, a, b Vec) {
	mustSameLen(len(a), len(b))
	mustSameLen(len(dst), len(a))
	for i := range a {
		dst[i] = a[i] - b[i]
	}
}

// AddScaled computes dst ← a + alpha·b. dst may alias a or b.
func AddScaled(dst, a Vec, alpha float64, b Vec) {
	mustSameLen(len(a), len(b))
	mustSameLen(len(dst), len(a))
	for i := range a {
		dst[i] = a[i] + alpha*b[i]
	}
}

// Mean computes the arithmetic mean of the vectors in vs into dst.
// It panics if vs is empty or lengths differ.
func Mean(dst Vec, vs []Vec) {
	if len(vs) == 0 {
		panic("tensor: Mean of no vectors")
	}
	Zero(dst)
	for _, v := range vs {
		Axpy(1, v, dst)
	}
	Scale(1/float64(len(vs)), dst)
}

// WeightedMean computes dst ← Σᵢ wᵢ·vsᵢ / Σᵢ wᵢ, the weighted model average
// used by the paper's second sampling scheme. It panics if the weights are
// empty, mismatched, or sum to a non-positive value.
func WeightedMean(dst Vec, vs []Vec, ws []float64) {
	if len(vs) == 0 || len(vs) != len(ws) {
		panic("tensor: WeightedMean with mismatched inputs")
	}
	total := 0.0
	for _, w := range ws {
		total += w
	}
	if total <= 0 {
		panic("tensor: WeightedMean with non-positive total weight")
	}
	Zero(dst)
	for i, v := range vs {
		Axpy(ws[i]/total, v, dst)
	}
}

// Softmax writes the softmax of logits into dst (which may alias logits),
// using the max-subtraction trick for numerical stability.
func Softmax(dst, logits Vec) {
	mustSameLen(len(dst), len(logits))
	max := logits[0]
	for _, v := range logits[1:] {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		e := math.Exp(v - max)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// LogSumExp returns log Σ exp(v_i), stabilized.
func LogSumExp(v Vec) float64 {
	max := v[0]
	for _, x := range v[1:] {
		if x > max {
			max = x
		}
	}
	sum := 0.0
	for _, x := range v {
		sum += math.Exp(x - max)
	}
	return max + math.Log(sum)
}

// ArgMax returns the index of the largest element of v.
func ArgMax(v Vec) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	_ = v[best]
	return best
}

// Sigmoid returns 1/(1+e^−x), saturating gracefully at the float64 limits.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}

// Tanh returns the hyperbolic tangent of x.
func Tanh(x float64) float64 { return math.Tanh(x) }

func mustSameLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("tensor: length mismatch %d vs %d", a, b))
	}
}

// Matrix is a dense row-major matrix view over a flat vector.
type Matrix[F Float] struct {
	Rows, Cols int
	Data       []F // len == Rows*Cols
}

// Mat is a float64 matrix.
type Mat = Matrix[float64]

// NewMat returns a zero matrix of the given shape backed by fresh storage.
func NewMat(rows, cols int) Mat {
	return Mat{Rows: rows, Cols: cols, Data: NewVec(rows * cols)}
}

// MatView wraps an existing slice as a rows×cols matrix. It panics if the
// slice has the wrong length.
func MatView[F Float](data []F, rows, cols int) Matrix[F] {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: MatView %dx%d over %d elements", rows, cols, len(data)))
	}
	return Matrix[F]{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m Matrix[F]) At(i, j int) F { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m Matrix[F]) Set(i, j int, v F) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a view (mutations are visible in m).
func (m Matrix[F]) Row(i int) []F { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// MatVec computes dst ← M·x. It panics on shape mismatch.
func MatVec(dst Vec, m Mat, x Vec) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic("tensor: MatVec shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// MatVecAdd computes dst ← M·x + b.
func MatVecAdd(dst Vec, m Mat, x, b Vec) {
	MatVec(dst, m, x)
	Axpy(1, b, dst)
}

// MatTVec computes dst ← Mᵀ·y (accumulating from zero).
func MatTVec(dst Vec, m Mat, y Vec) {
	if len(y) != m.Rows || len(dst) != m.Cols {
		panic("tensor: MatTVec shape mismatch")
	}
	Zero(dst)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		yi := y[i]
		if yi == 0 {
			continue
		}
		for j, v := range row {
			dst[j] += v * yi
		}
	}
}

// AddOuter computes M ← M + alpha·(y xᵀ), the rank-one update that backs
// every weight-matrix gradient in this repository.
func AddOuter(m Mat, alpha float64, y, x Vec) {
	if len(y) != m.Rows || len(x) != m.Cols {
		panic("tensor: AddOuter shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		ayi := alpha * y[i]
		if ayi == 0 {
			continue
		}
		for j := range row {
			row[j] += ayi * x[j]
		}
	}
}
