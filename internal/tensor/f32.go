// Precision, the width crossings, and the kernels that exist only at
// float32.
//
// The f32 path exists for speed, not semantics: halved memory traffic on
// the solve/encode hot loop and half the bytes on a raw wire. It uses the
// float64 layout (flat slices, row-major matrices), so a model's
// parameter vector is narrowed once at the dispatch boundary, walked
// entirely in float32, and widened once at the reply boundary.
//
// The batched panel kernels (MatMulNT32, MatMul32, AddOuterPanel32) are
// what let linear/mlp gradient code walk a whole minibatch per call:
// examples are gathered into a row-major B×D panel and every weight row
// streams through the panel once, instead of re-entering a per-example
// GEMV with cold accumulators.
package tensor

import (
	"fmt"
	"math"
)

// Precision selects the arithmetic width of the device-side hot path
// (local solve, γ-probe, codec encode/decode). The zero value is float64
// — the historical default — so Precision is omittable everywhere it
// appears (configs, wire Specs, gob snapshots).
type Precision string

const (
	// F64 is full-width execution, the default.
	F64 Precision = ""
	// F32 runs the device hot path and the wire in float32; results are
	// widened once at the reply boundary so aggregation math stays f64.
	F32 Precision = "f32"
)

// Precisions lists the supported precision names in negotiation form
// (the fednet Hello offer vocabulary). The zero Precision is spelled
// "f64" on the wire.
func Precisions() []string { return []string{"f64", "f32"} }

// ParsePrecision maps a flag/wire spelling to a Precision. "" and "f64"
// both mean full width.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "f64":
		return F64, nil
	case "f32":
		return F32, nil
	}
	return F64, fmt.Errorf("tensor: unknown precision %q (want f64 or f32)", s)
}

// Validate rejects anything but the two supported widths.
func (p Precision) Validate() error {
	_, err := ParsePrecision(string(p))
	return err
}

// String spells the zero value as "f64".
func (p Precision) String() string {
	if p == F64 {
		return "f64"
	}
	return string(p)
}

// Vec32 is a dense float32 vector.
type Vec32 = []float32

// Widen copies src into dst element-wise, promoting to float64.
func Widen(dst Vec, src Vec32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: Widen length mismatch %d vs %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] = float64(v)
	}
}

// ToVec returns v as a float64 vector and takes ownership of v: a
// float64 v is returned as is, a float32 v is widened into a pooled
// vector and recycled. This is the one sanctioned f32→f64 crossing:
// reply params and fold inputs go through here exactly once.
func ToVec[F Float](v []F) Vec {
	if w, ok := any(v).(Vec); ok {
		return w
	}
	out := GetVec(len(v))
	Widen(out, any(v).(Vec32))
	PutVec(v)
	return out
}

// Narrow copies src into dst element-wise, rounding to F — a plain copy
// at float64, the dispatch-boundary twin of ToVec at float32.
func Narrow[F Float](dst []F, src Vec) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: Narrow length mismatch %d vs %d", len(dst), len(src)))
	}
	d32, ok := any(dst).(Vec32)
	if !ok {
		copy(any(dst).(Vec), src)
		return
	}
	// Unrolled: the convert sits on the panel-gather path of every batched
	// gradient, where the loop-carried bounds checks otherwise cost as
	// much as the conversions.
	i := 0
	for ; i+4 <= len(src); i += 4 {
		s := src[i : i+4 : i+4]
		d := d32[i : i+4 : i+4]
		d[0] = float32(s[0])
		d[1] = float32(s[1])
		d[2] = float32(s[2])
		d[3] = float32(s[3])
	}
	for ; i < len(src); i++ {
		d32[i] = float32(src[i])
	}
}

// dot32 is Dot's float32 kernel. Four independent accumulators keep the
// multiply-adds pipelined instead of serialized on one register's
// latency chain.
func dot32(a, b Vec32) float32 {
	mustSameLen(len(a), len(b))
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		aa, bb := a[i:i+4:i+4], b[i:i+4:i+4]
		s0 += aa[0] * bb[0]
		s1 += aa[1] * bb[1]
		s2 += aa[2] * bb[2]
		s3 += aa[3] * bb[3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// sqDist32 is SqDist's float32 kernel, on two accumulators.
func sqDist32(a, b Vec32) float32 {
	mustSameLen(len(a), len(b))
	var s0, s1 float32
	i := 0
	for ; i+2 <= len(a); i += 2 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		s0 += d0 * d0
		s1 += d1 * d1
	}
	if i < len(a) {
		d := a[i] - b[i]
		s0 += d * d
	}
	return s0 + s1
}

// CrossEntropySoftmax32 writes the stable softmax of logits into probs
// (which may alias logits) and returns the cross-entropy loss −log p_y.
// One exp pass serves both outputs — the f64 path's separate LogSumExp +
// Softmax calls exponentiate every logit twice.
func CrossEntropySoftmax32(probs, logits Vec32, y int) float32 {
	max := logits[0]
	for _, v := range logits[1:] {
		if v > max {
			max = v
		}
	}
	var sum float32
	for i, v := range logits {
		e := float32(math.Exp(float64(v - max)))
		probs[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range probs {
		probs[i] *= inv
	}
	return float32(math.Log(float64(sum))) + max - logits[y]
}

// Tanh32 is the float32 hyperbolic tangent.
func Tanh32(x float32) float32 { return float32(math.Tanh(float64(x))) }

// Mat32 is a float32 matrix.
type Mat32 = Matrix[float32]

// MatMulNT32 computes dst ← a·bᵀ (+ bias broadcast over rows when bias
// is non-nil): dst is B×C, a is the B×D example panel, b is the C×D
// weight matrix. This is the batched forward pass — each weight row is
// streamed against every example before moving on, so it is read from
// cache C·B times but fetched once.
func MatMulNT32(dst, a, b Mat32, bias Vec32) {
	if dst.Rows != a.Rows || dst.Cols != b.Rows || a.Cols != b.Cols {
		panic("tensor: MatMulNT32 shape mismatch")
	}
	if bias != nil && len(bias) != b.Rows {
		panic("tensor: MatMulNT32 bias length mismatch")
	}
	d := a.Cols
	i := 0
	// Register-block two weight rows per pass: each example element is
	// loaded once and feeds both rows' accumulators, halving the panel
	// traffic per output relative to row-at-a-time dots.
	for ; i+2 <= b.Rows; i += 2 {
		w0, w1 := b.Row(i)[:d], b.Row(i + 1)[:d]
		var off0, off1 float32
		if bias != nil {
			off0, off1 = bias[i], bias[i+1]
		}
		for e := 0; e < a.Rows; e++ {
			ar := a.Row(e)[:d]
			var s0, s1, t0, t1 float32
			k := 0
			for ; k+4 <= d; k += 4 {
				aa, u0, u1 := ar[k:k+4:k+4], w0[k:k+4:k+4], w1[k:k+4:k+4]
				s0 += aa[0]*u0[0] + aa[2]*u0[2]
				t0 += aa[1]*u0[1] + aa[3]*u0[3]
				s1 += aa[0]*u1[0] + aa[2]*u1[2]
				t1 += aa[1]*u1[1] + aa[3]*u1[3]
			}
			for ; k < d; k++ {
				a0 := ar[k]
				s0 += a0 * w0[k]
				s1 += a0 * w1[k]
			}
			out := dst.Row(e)
			out[i] = s0 + t0 + off0
			out[i+1] = s1 + t1 + off1
		}
	}
	if i < b.Rows {
		w := b.Row(i)
		var off float32
		if bias != nil {
			off = bias[i]
		}
		for e := 0; e < a.Rows; e++ {
			dst.Data[e*dst.Cols+i] = dot32(a.Row(e), w) + off
		}
	}
}

// MatMul32 computes dst ← a·b: dst is B×N, a is B×M, b is M×N. Used by
// the batched backward pass to push a delta panel through Wᵀ… spelled as
// row-panel axpys so the inner loop is contiguous in both b and dst.
func MatMul32(dst, a, b Mat32) {
	if dst.Rows != a.Rows || a.Cols != b.Rows || dst.Cols != b.Cols {
		panic("tensor: MatMul32 shape mismatch")
	}
	for e := 0; e < a.Rows; e++ {
		out := dst.Row(e)
		Zero(out)
		ar := a.Row(e)
		for i, c := range ar {
			if c != 0 {
				Axpy(c, b.Row(i), out)
			}
		}
	}
}

// AddOuterPanel32 computes m ← m + alpha·(yᵀ·x), the batched rank-B
// generalization of AddOuter: m is C×D, y is the B×C coefficient panel
// (one softmax/delta row per example), x is the B×D example panel. Each
// destination row accumulates across the whole batch while it is hot.
func AddOuterPanel32(m Mat32, alpha float32, y, x Mat32) {
	if y.Rows != x.Rows || m.Rows != y.Cols || m.Cols != x.Cols {
		panic("tensor: AddOuterPanel32 shape mismatch")
	}
	d := m.Cols
	bn := y.Rows
	yc := y.Cols
	i := 0
	// Register-block two destination rows and four examples per pass. The
	// naive form is a read-modify-write on a weight row per example — one
	// store per multiply-add, which is what bounds the kernel. Folding
	// four examples' contributions into each destination element before it
	// is written back cuts the store traffic 4x while every stream (both
	// rows, all four example rows) stays sequential.
	for ; i+2 <= m.Rows; i += 2 {
		r0, r1 := m.Row(i)[:d], m.Row(i + 1)[:d]
		e := 0
		for ; e+4 <= bn; e += 4 {
			c00, c01 := alpha*y.Data[e*yc+i], alpha*y.Data[(e+1)*yc+i]
			c02, c03 := alpha*y.Data[(e+2)*yc+i], alpha*y.Data[(e+3)*yc+i]
			c10, c11 := alpha*y.Data[e*yc+i+1], alpha*y.Data[(e+1)*yc+i+1]
			c12, c13 := alpha*y.Data[(e+2)*yc+i+1], alpha*y.Data[(e+3)*yc+i+1]
			x0, x1 := x.Row(e)[:d], x.Row(e + 1)[:d]
			x2, x3 := x.Row(e + 2)[:d], x.Row(e + 3)[:d]
			for k := 0; k < d; k++ {
				xv0, xv1, xv2, xv3 := x0[k], x1[k], x2[k], x3[k]
				r0[k] += c00*xv0 + c01*xv1 + c02*xv2 + c03*xv3
				r1[k] += c10*xv0 + c11*xv1 + c12*xv2 + c13*xv3
			}
		}
		for ; e < bn; e++ {
			c0 := alpha * y.Data[e*yc+i]
			c1 := alpha * y.Data[e*yc+i+1]
			xr := x.Row(e)[:d]
			for k := 0; k < d; k++ {
				x0 := xr[k]
				r0[k] += c0 * x0
				r1[k] += c1 * x0
			}
		}
	}
	if i < m.Rows {
		row := m.Row(i)
		for e := 0; e < bn; e++ {
			c := alpha * y.Data[e*yc+i]
			if c != 0 {
				Axpy(c, x.Row(e), row)
			}
		}
	}
}
