// Package metrics evaluates the quantities the paper reports: the global
// objective f(w) (training loss), testing accuracy, and the gradient-
// variance dissimilarity measure that tracks the B-local dissimilarity of
// Definition 3.
//
// All quantities are exact sums over every device in the network (not just
// the sampled subset), matching "we report all metrics based on the global
// objective f(w)" (Section 5.1). Evaluation fans out across shards with a
// bounded worker pool because it is by far the most expensive part of a
// simulated round.
//
// Every metric is defined over a data.Fleet, the lazy population view:
// workers materialize a shard, measure it, and release it, so peak memory
// during evaluation is O(workers × shard), not O(population) — the
// property that lets a 10^6-device run afford its milestone evaluations.
// Evaluate takes every metric in one pass, so an evaluation costs one
// shard materialization per device: on a synthesized fleet, synthesis
// dominates evaluation, and a second pass would double it. EvalShard is
// that pass's per-device body, shared with the device runtime's wire
// replies. The *data.Federated forms delegate through the eager Fleet
// adapter and return bit-identical results.
package metrics

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"fedprox/internal/data"
	"fedprox/internal/model"
	"fedprox/internal/tensor"
)

// Result is the global metrics at one point: f(w), test accuracy, and
// — when the evaluation asked for them — the dissimilarity measures
// (zero otherwise).
type Result struct {
	Loss    float64
	Acc     float64
	GradVar float64
	B       float64
}

// ShardEval is one shard's contribution to the global metrics.
type ShardEval struct {
	TrainLoss float64 // mean loss over the local training set
	TrainN    int
	Correct   int // correct test predictions
	TestN     int
}

// EvalShard measures one materialized shard at w. It is the single body
// for "one device's contribution": Evaluate folds it over the fleet, and
// the device runtime reports it per hosted shard over the wire.
func EvalShard(m model.Model, s *data.Shard, w []float64) ShardEval {
	ev := ShardEval{
		TrainLoss: m.Loss(w, s.Train),
		TrainN:    len(s.Train),
		TestN:     len(s.Test),
	}
	for _, ex := range s.Test {
		if m.Predict(w, ex) == ex.Y {
			ev.Correct++
		}
	}
	return ev
}

// Evaluate measures the global model over a fleet in one pass: each
// shard is materialized once, measured by EvalShard (plus its full
// local gradient when dissimilarity is set), and released. Per-device
// losses (and gradients) land in slots that are combined in ascending
// device order, so the result is bit-identical across worker counts and
// to the eager path; the test counts are integers, whose sum does not
// depend on order.
func Evaluate(m model.Model, fl data.Fleet, w []float64, dissimilarity bool) Result {
	n := fl.NumDevices()
	losses := make([]float64, n)
	var correct, total atomic.Int64
	var grads [][]float64
	if dissimilarity {
		grads = make([][]float64, n)
	}
	forEachShard(n, func(k int) {
		s := fl.Shard(k)
		ev := EvalShard(m, s, w)
		if grads != nil {
			grads[k] = make([]float64, m.NumParams())
			m.Grad(grads[k], w, s.Train)
		}
		fl.Release(k)
		losses[k] = ev.TrainLoss
		correct.Add(int64(ev.Correct))
		total.Add(int64(ev.TestN))
	})
	weights := data.FleetWeights(fl)
	var r Result
	for k, l := range losses {
		r.Loss += weights[k] * l
	}
	if t := total.Load(); t > 0 {
		r.Acc = float64(correct.Load()) / float64(t)
	}
	if grads != nil {
		r.GradVar, r.B = dissimilarityOf(grads, weights, m.NumParams())
	}
	return r
}

// FleetLoss returns f(w) = Σ_k p_k F_k(w), with p_k = n_k/n, over a
// fleet's local training sets alone — the loss-only pass adaptive μ
// observes between evaluations. The weighted sum is accumulated in
// ascending device order, matching Evaluate's Loss bit for bit.
func FleetLoss(m model.Model, fl data.Fleet, w []float64) float64 {
	weights := data.FleetWeights(fl)
	losses := make([]float64, fl.NumDevices())
	forEachShard(len(losses), func(k int) {
		s := fl.Shard(k)
		losses[k] = m.Loss(w, s.Train)
		fl.Release(k)
	})
	total := 0.0
	for k, l := range losses {
		total += weights[k] * l
	}
	return total
}

// PerClassAccuracy returns test accuracy broken down by true label, plus
// per-class test counts. It is the instrument for the paper's bias claim:
// dropping stragglers "may induce bias in the device sampling procedure if
// the dropped devices have specific data characteristics" (Section 2) —
// visible as depressed accuracy on exactly the classes the dropped
// devices hold.
func PerClassAccuracy(m model.Model, fed *data.Federated, w []float64) (acc []float64, counts []int) {
	classes := fed.NumClasses
	correct := make([][]int, len(fed.Shards))
	total := make([][]int, len(fed.Shards))
	forEachShard(len(fed.Shards), func(k int) {
		c := make([]int, classes)
		n := make([]int, classes)
		for _, ex := range fed.Shards[k].Test {
			n[ex.Y]++
			if m.Predict(w, ex) == ex.Y {
				c[ex.Y]++
			}
		}
		correct[k], total[k] = c, n
	})
	acc = make([]float64, classes)
	counts = make([]int, classes)
	sums := make([]int, classes)
	for k := range correct {
		for c := 0; c < classes; c++ {
			sums[c] += correct[k][c]
			counts[c] += total[k][c]
		}
	}
	for c := 0; c < classes; c++ {
		if counts[c] > 0 {
			acc[c] = float64(sums[c]) / float64(counts[c])
		}
	}
	return acc, counts
}

// GradVariance returns the empirical dissimilarity measure the paper plots
// (Figures 2, 6, 8, 12):
//
//	E_k ‖∇F_k(w) − ∇f(w)‖²  with E_k weighted by p_k = n_k/n,
//
// which lower-bounds the B-dissimilarity via Corollary 10.
func GradVariance(m model.Model, fed *data.Federated, w []float64) float64 {
	v, _ := Dissimilarity(m, fed, w)
	return v
}

// Dissimilarity returns the gradient variance E_k‖∇F_k(w) − ∇f(w)‖² and
// the B(w) estimate of Definition 3,
//
//	B(w) = sqrt( E_k‖∇F_k(w)‖² / ‖∇f(w)‖² ),
//
// with B(w) defined as 1 at points where the two coincide (the paper's
// stationarity convention) and 0 reported when ‖∇f(w)‖ is numerically
// zero without agreement.
//
// The per-device gradients are held until ∇f(w) is known, so a
// dissimilarity evaluation costs O(N × params) floats: it is meant for
// the tracked-dissimilarity configurations (tens to hundreds of
// devices), not million-device sweeps — which reject TrackGamma anyway.
func Dissimilarity(m model.Model, fed *data.Federated, w []float64) (variance, b float64) {
	r := Evaluate(m, fed.Fleet(), w, true)
	return r.GradVar, r.B
}

// dissimilarityOf reduces per-device gradients ∇F_k(w) with weights p_k
// to the gradient variance and B(w), in ascending device order.
func dissimilarityOf(grads [][]float64, weights []float64, params int) (variance, b float64) {
	// ∇f(w) = Σ p_k ∇F_k(w).
	gf := make([]float64, params)
	for k, g := range grads {
		tensor.Axpy(weights[k], g, gf)
	}
	normF2 := tensor.Dot(gf, gf)
	exp2 := 0.0 // E_k‖∇F_k‖²
	for k, g := range grads {
		exp2 += weights[k] * tensor.Dot(g, g)
		variance += weights[k] * tensor.SqDist(g, gf)
	}
	const eps = 1e-18
	switch {
	case exp2-normF2 < eps && normF2 < eps:
		b = 1 // stationary point all devices agree on
	case normF2 < eps:
		b = 0 // undefined; report 0 rather than +Inf
	default:
		b = math.Sqrt(exp2 / normF2)
	}
	return variance, b
}

// forEachShard runs fn(k) for k in [0, n) on a bounded worker pool.
func forEachShard(n int, fn func(k int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for k := 0; k < n; k++ {
			fn(k)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				fn(k)
			}
		}()
	}
	for k := 0; k < n; k++ {
		next <- k
	}
	close(next)
	wg.Wait()
}
