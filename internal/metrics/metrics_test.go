package metrics

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"fedprox/internal/data"
	"fedprox/internal/data/synthetic"
	"fedprox/internal/frand"
	"fedprox/internal/model"
	"fedprox/internal/model/linear"
	"fedprox/internal/tensor"
)

// identicalShards builds a network whose devices all hold the same data,
// the B(w) = 1 sanity case from Definition 3.
func identicalShards(devices int) *data.Federated {
	rng := frand.New(21)
	base := make([]data.Example, 30)
	for i := range base {
		x := rng.NormVec(make([]float64, 4), 0, 1)
		y := 0
		if x[0] > 0 {
			y = 1
		}
		base[i] = data.Example{X: x, Y: y}
	}
	fed := &data.Federated{Name: "identical", NumClasses: 2, FeatureDim: 4}
	for d := 0; d < devices; d++ {
		fed.Shards = append(fed.Shards, &data.Shard{ID: d, Train: base, Test: base[:5]})
	}
	return fed
}

func skewedShards() *data.Federated {
	rng := frand.New(23)
	fed := &data.Federated{Name: "skewed", NumClasses: 2, FeatureDim: 4}
	for d := 0; d < 6; d++ {
		exs := make([]data.Example, 20)
		for i := range exs {
			x := rng.NormVec(make([]float64, 4), float64(d), 1)
			exs[i] = data.Example{X: x, Y: d % 2}
		}
		fed.Shards = append(fed.Shards, &data.Shard{ID: d, Train: exs, Test: exs[:4]})
	}
	return fed
}

func TestGlobalLossWeighted(t *testing.T) {
	fed := identicalShards(4)
	m := linear.ForDataset(fed)
	w := make([]float64, m.NumParams())
	// All shards identical ⇒ global loss equals any single shard's loss.
	want := m.Loss(w, fed.Shards[0].Train)
	if got := Evaluate(m, fed.Fleet(), w, false).Loss; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Loss = %g, want %g", got, want)
	}
}

func TestGlobalLossRespectsWeights(t *testing.T) {
	// Two devices with different sizes: the larger must dominate.
	rng := frand.New(25)
	mk := func(n int, mean float64, y int) []data.Example {
		out := make([]data.Example, n)
		for i := range out {
			out[i] = data.Example{X: rng.NormVec(make([]float64, 2), mean, 0.1), Y: y}
		}
		return out
	}
	fed := &data.Federated{Name: "two", NumClasses: 2, FeatureDim: 2}
	fed.Shards = append(fed.Shards,
		&data.Shard{ID: 0, Train: mk(90, 1, 0), Test: mk(2, 1, 0)},
		&data.Shard{ID: 1, Train: mk(10, -1, 1), Test: mk(2, -1, 1)},
	)
	m := linear.ForDataset(fed)
	w := make([]float64, m.NumParams())
	l0 := m.Loss(w, fed.Shards[0].Train)
	l1 := m.Loss(w, fed.Shards[1].Train)
	want := 0.9*l0 + 0.1*l1
	if got := Evaluate(m, fed.Fleet(), w, false).Loss; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Loss = %g, want %g", got, want)
	}
}

func TestTestAccuracyPerfectAndZero(t *testing.T) {
	fed := identicalShards(3)
	m := linear.ForDataset(fed)
	// Weights that implement "predict 1 iff x0 > 0" exactly: class-1 row
	// gets +x0 weight.
	w := make([]float64, m.NumParams())
	w[4] = 100 // W[1][0]
	acc := Evaluate(m, fed.Fleet(), w, false).Acc
	if acc < 0.99 {
		t.Fatalf("constructed classifier accuracy = %g, want ~1", acc)
	}
	// Inverted classifier: accuracy ~0.
	w[4] = -100
	if acc := Evaluate(m, fed.Fleet(), w, false).Acc; acc > 0.01 {
		t.Fatalf("inverted classifier accuracy = %g, want ~0", acc)
	}
}

func TestTestAccuracyEmptyNetwork(t *testing.T) {
	fed := &data.Federated{Name: "e", NumClasses: 2, FeatureDim: 1,
		Shards: []*data.Shard{{Train: []data.Example{{X: []float64{1}, Y: 0}}}}}
	m := linear.ForDataset(fed)
	if acc := Evaluate(m, fed.Fleet(), make([]float64, m.NumParams()), false).Acc; acc != 0 {
		t.Fatalf("accuracy with no test data = %g, want 0", acc)
	}
}

func TestDissimilarityIdenticalDevices(t *testing.T) {
	fed := identicalShards(5)
	m := linear.ForDataset(fed)
	rng := frand.New(27)
	w := rng.NormVec(make([]float64, m.NumParams()), 0, 0.5)
	variance, b := Dissimilarity(m, fed, w)
	if variance > 1e-18 {
		t.Fatalf("identical devices have gradient variance %g, want 0", variance)
	}
	if math.Abs(b-1) > 1e-6 {
		t.Fatalf("identical devices B(w) = %g, want 1", b)
	}
}

func TestDissimilarityGrowsWithSkew(t *testing.T) {
	fed := skewedShards()
	m := linear.ForDataset(fed)
	rng := frand.New(29)
	w := rng.NormVec(make([]float64, m.NumParams()), 0, 0.5)
	vSkew, bSkew := Dissimilarity(m, fed, w)
	if vSkew <= 0 {
		t.Fatalf("skewed variance = %g, want > 0", vSkew)
	}
	if bSkew < 1 {
		t.Fatalf("B(w) = %g, want >= 1", bSkew)
	}
}

func TestGradVarianceMatchesDissimilarity(t *testing.T) {
	fed := skewedShards()
	m := linear.ForDataset(fed)
	w := make([]float64, m.NumParams())
	v1 := GradVariance(m, fed, w)
	v2, _ := Dissimilarity(m, fed, w)
	if v1 != v2 {
		t.Fatalf("GradVariance %g != Dissimilarity variance %g", v1, v2)
	}
}

// TestVarianceIdentity checks E‖∇F_k − ∇f‖² = E‖∇F_k‖² − ‖∇f‖², the
// identity behind Corollary 10, holds for the implementation.
func TestVarianceIdentity(t *testing.T) {
	fed := skewedShards()
	m := linear.ForDataset(fed)
	rng := frand.New(31)
	w := rng.NormVec(make([]float64, m.NumParams()), 0, 0.3)
	variance, b := Dissimilarity(m, fed, w)

	// Recompute the two sides by hand.
	weights := fed.Weights()
	gf := make([]float64, m.NumParams())
	exp2 := 0.0
	grads := make([][]float64, len(fed.Shards))
	for k, s := range fed.Shards {
		g := make([]float64, m.NumParams())
		m.Grad(g, w, s.Train)
		grads[k] = g
		for i := range gf {
			gf[i] += weights[k] * g[i]
		}
	}
	normF2 := 0.0
	for _, v := range gf {
		normF2 += v * v
	}
	for k, g := range grads {
		d := 0.0
		for i := range g {
			d += g[i] * g[i]
		}
		exp2 += weights[k] * d
	}
	if math.Abs(variance-(exp2-normF2)) > 1e-9*(1+exp2) {
		t.Fatalf("variance identity violated: %g vs %g", variance, exp2-normF2)
	}
	if wantB := math.Sqrt(exp2 / normF2); math.Abs(b-wantB) > 1e-9 {
		t.Fatalf("B = %g, want %g", b, wantB)
	}
}

func TestForEachShardSmallN(t *testing.T) {
	// n=1 exercises the sequential path.
	hit := 0
	forEachShard(1, func(k int) { hit++ })
	if hit != 1 {
		t.Fatalf("forEachShard(1) ran %d times", hit)
	}
	// Large n exercises the pool; every index exactly once.
	var mu = make([]int, 100)
	forEachShard(100, func(k int) { mu[k]++ })
	for k, c := range mu {
		if c != 1 {
			t.Fatalf("index %d ran %d times", k, c)
		}
	}
}

// countingFleet counts every shard materialization and release.
type countingFleet struct {
	data.Fleet
	shards, releases atomic.Int64
}

func (f *countingFleet) Shard(k int) *data.Shard {
	f.shards.Add(1)
	return f.Fleet.Shard(k)
}

func (f *countingFleet) Release(k int) {
	f.releases.Add(1)
	f.Fleet.Release(k)
}

// threePassReference computes the metrics the way separate passes
// would: a loss pass, an accuracy pass and a gradient pass, each walking
// the fleet sequentially and summing in ascending device order.
func threePassReference(m model.Model, fl data.Fleet, w []float64) Result {
	n := fl.NumDevices()
	weights := data.FleetWeights(fl)
	var r Result
	for k := 0; k < n; k++ {
		r.Loss += weights[k] * m.Loss(w, fl.Shard(k).Train)
		fl.Release(k)
	}
	correct, total := 0, 0
	for k := 0; k < n; k++ {
		s := fl.Shard(k)
		for _, ex := range s.Test {
			if m.Predict(w, ex) == ex.Y {
				correct++
			}
		}
		total += len(s.Test)
		fl.Release(k)
	}
	r.Acc = float64(correct) / float64(total)
	grads := make([][]float64, n)
	gf := make([]float64, m.NumParams())
	for k := 0; k < n; k++ {
		grads[k] = make([]float64, m.NumParams())
		m.Grad(grads[k], w, fl.Shard(k).Train)
		fl.Release(k)
		tensor.Axpy(weights[k], grads[k], gf)
	}
	normF2 := tensor.Dot(gf, gf)
	exp2 := 0.0
	for k, g := range grads {
		exp2 += weights[k] * tensor.Dot(g, g)
		r.GradVar += weights[k] * tensor.SqDist(g, gf)
	}
	r.B = math.Sqrt(exp2 / normF2)
	return r
}

// TestFleetEvalOneShardPerDevice: one evaluation materializes and
// releases each device's shard exactly once, with or without the
// dissimilarity measures, and reproduces separate per-metric passes bit
// for bit at any worker count, over eager and lazy fleets alike.
func TestFleetEvalOneShardPerDevice(t *testing.T) {
	cfg := synthetic.Default(1, 1)
	cfg.Devices, cfg.Dim, cfg.Classes = 200, 6, 4
	cfg.MinSamples, cfg.MaxSamples = 5, 40
	fleets := map[string]data.Fleet{
		"eager": synthetic.Generate(cfg).Fleet(),
		"lazy":  synthetic.NewFleet(cfg),
	}
	m := linear.New(cfg.Dim, cfg.Classes)
	w := frand.New(33).NormVec(make([]float64, m.NumParams()), 0, 0.5)
	want := threePassReference(m, fleets["eager"], w)
	bits := func(r Result) [4]uint64 {
		return [4]uint64{math.Float64bits(r.Loss), math.Float64bits(r.Acc), math.Float64bits(r.GradVar), math.Float64bits(r.B)}
	}
	for _, name := range []string{"eager", "lazy"} {
		if got := threePassReference(m, fleets[name], w); bits(got) != bits(want) {
			t.Fatalf("%s reference %+v != eager reference %+v", name, got, want)
		}
		if got := FleetLoss(m, fleets[name], w); math.Float64bits(got) != math.Float64bits(want.Loss) {
			t.Fatalf("%s FleetLoss = %v, want %v", name, got, want.Loss)
		}
		for _, procs := range []int{1, 4} {
			for _, dissim := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/procs=%d/dissimilarity=%v", name, procs, dissim), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					fl := &countingFleet{Fleet: fleets[name]}
					got := Evaluate(m, fl, w, dissim)
					if s, r := fl.shards.Load(), fl.releases.Load(); s != int64(cfg.Devices) || r != int64(cfg.Devices) {
						t.Fatalf("%d Shard and %d Release calls, want %d each", s, r, cfg.Devices)
					}
					ref := want
					if !dissim {
						ref.GradVar, ref.B = 0, 0
					}
					if bits(got) != bits(ref) {
						t.Fatalf("Evaluate = %+v, want %+v", got, ref)
					}
				})
			}
		}
	}
}
