package core

import (
	"testing"

	"fedprox/internal/data"
	"fedprox/internal/data/synthetic"
	"fedprox/internal/model/linear"
)

func tinyWorkload() (*linear.Model, *data.Federated) {
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.12))
	return linear.ForDataset(fed), fed
}

func TestConfigValidate(t *testing.T) {
	good := FedProx(10, 5, 3, 0.01, 1)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Rounds = 0 },
		func(c *Config) { c.ClientsPerRound = 0 },
		func(c *Config) { c.LocalEpochs = 0 },
		func(c *Config) { c.LearningRate = 0 },
		func(c *Config) { c.BatchSize = 0 },
		func(c *Config) { c.Mu = -1 },
		func(c *Config) { c.StragglerFraction = 1.5 },
		func(c *Config) { c.StragglerFraction = -0.1 },
	}
	for i, mutate := range bad {
		c := FedProx(10, 5, 3, 0.01, 1)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestStringers(t *testing.T) {
	for _, s := range []SamplingScheme{UniformWeightedAvg, WeightedSimpleAvg, SamplingScheme(9)} {
		if s.String() == "" {
			t.Fatal("empty SamplingScheme string")
		}
	}
	for _, p := range []StragglerPolicy{DropStragglers, AggregatePartial, StragglerPolicy(9)} {
		if p.String() == "" {
			t.Fatal("empty StragglerPolicy string")
		}
	}
}

func TestLabelNames(t *testing.T) {
	if got := Label(FedAvg(1, 1, 1, 0.1)); got != "FedAvg" {
		t.Fatalf("Label = %q", got)
	}
	if got := Label(FedProx(1, 1, 1, 0.1, 0)); got != "FedProx(mu=0)" {
		t.Fatalf("Label = %q", got)
	}
	if got := Label(FedProx(1, 1, 1, 0.1, 0.01)); got != "FedProx(mu=0.01)" {
		t.Fatalf("Label = %q", got)
	}
	c := FedProx(1, 1, 1, 0.1, 1)
	c.AdaptiveMu = true
	if got := Label(c); got != "FedProx(adaptive mu0=1)" {
		t.Fatalf("Label = %q", got)
	}
}

func TestEnvDeterministicAcrossMethods(t *testing.T) {
	_, fed := tinyWorkload()
	avg := FedAvg(5, 4, 3, 0.01)
	avg.StragglerFraction = 0.5
	prox := FedProx(5, 4, 3, 0.01, 1)
	prox.StragglerFraction = 0.5
	ea, ep := NewEnv(fed, avg), NewEnv(fed, prox)
	for round := 0; round < 5; round++ {
		sa, sp := ea.SelectDevices(round), ep.SelectDevices(round)
		for i := range sa {
			if sa[i] != sp[i] {
				t.Fatalf("round %d: selection differs across methods", round)
			}
		}
		eaE, eaS := ea.StragglerPlan(round, sa)
		epE, epS := ep.StragglerPlan(round, sp)
		for i := range eaE {
			if eaE[i] != epE[i] || eaS[i] != epS[i] {
				t.Fatalf("round %d: straggler plan differs across methods", round)
			}
		}
	}
}

func TestEnvSelectionChangesPerRound(t *testing.T) {
	_, fed := tinyWorkload()
	env := NewEnv(fed, FedAvg(10, 10, 3, 0.01))
	same := true
	first := env.SelectDevices(0)
	for r := 1; r < 5 && same; r++ {
		sel := env.SelectDevices(r)
		for i := range sel {
			if sel[i] != first[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("device selection identical for 5 rounds")
	}
}

func TestStragglerPlanCounts(t *testing.T) {
	_, fed := tinyWorkload()
	cfg := FedProx(3, 10, 20, 0.01, 0)
	cfg.StragglerFraction = 0.9
	env := NewEnv(fed, cfg)
	sel := env.SelectDevices(0)
	epochs, strag := env.StragglerPlan(0, sel)
	n := 0
	for i := range strag {
		if strag[i] {
			n++
			if epochs[i] < 1 || epochs[i] > 20 {
				t.Fatalf("straggler epochs = %d, want [1,20]", epochs[i])
			}
		} else if epochs[i] != 20 {
			t.Fatalf("non-straggler epochs = %d, want 20", epochs[i])
		}
	}
	if n != 9 {
		t.Fatalf("stragglers = %d, want 9 of 10", n)
	}
}

func TestStragglerPlanZeroFraction(t *testing.T) {
	_, fed := tinyWorkload()
	env := NewEnv(fed, FedProx(3, 10, 20, 0.01, 0))
	epochs, strag := env.StragglerPlan(0, env.SelectDevices(0))
	for i := range strag {
		if strag[i] || epochs[i] != 20 {
			t.Fatal("stragglers designated at fraction 0")
		}
	}
}

// TestFedAvgEqualsFedProxMuZeroNoStragglers is the paper's own identity:
// "FedProx with mu = 0 and without systems heterogeneity corresponds to
// FedAvg" (Figure 1 caption). The trajectories must match exactly.
func TestFedAvgEqualsFedProxMuZeroNoStragglers(t *testing.T) {
	m, fed := tinyWorkload()
	avg, err := Run(m, fed, FedAvg(6, 5, 3, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	prox, err := Run(m, fed, FedProx(6, 5, 3, 0.01, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := range avg.Points {
		if avg.Points[i].TrainLoss != prox.Points[i].TrainLoss {
			t.Fatalf("round %d: FedAvg loss %g != FedProx(0) loss %g",
				avg.Points[i].Round, avg.Points[i].TrainLoss, prox.Points[i].TrainLoss)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	m, fed := tinyWorkload()
	cfg := FedProx(5, 5, 3, 0.01, 1)
	cfg.StragglerFraction = 0.5
	a, err := Run(m, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(m, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		if a.Points[i].TrainLoss != b.Points[i].TrainLoss || a.Points[i].TestAcc != b.Points[i].TestAcc {
			t.Fatalf("run not reproducible at point %d", i)
		}
	}
}

func TestRunParallelMatchesSequential(t *testing.T) {
	m, fed := tinyWorkload()
	cfg := FedProx(4, 6, 3, 0.01, 1)
	cfg.Parallelism = 1
	seq, err := Run(m, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 8
	par, err := Run(m, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Points {
		if seq.Points[i].TrainLoss != par.Points[i].TrainLoss {
			t.Fatalf("parallel run diverged from sequential at point %d", i)
		}
	}
}

func TestRunReducesLoss(t *testing.T) {
	m, fed := tinyWorkload()
	h, err := Run(m, fed, FedProx(15, 10, 5, 0.01, 0))
	if err != nil {
		t.Fatal(err)
	}
	if h.Final().TrainLoss >= h.Points[0].TrainLoss {
		t.Fatalf("training did not reduce loss: %g -> %g",
			h.Points[0].TrainLoss, h.Final().TrainLoss)
	}
	if h.Final().TestAcc <= 0.2 {
		t.Fatalf("accuracy after training = %g", h.Final().TestAcc)
	}
}

// TestDropVsAggregateUnderStragglers verifies the paper's headline systems
// result on a miniature instance: aggregating partial work beats dropping
// stragglers when 90% of devices straggle.
func TestDropVsAggregateUnderStragglers(t *testing.T) {
	m, fed := tinyWorkload()
	mk := func(policy StragglerPolicy) float64 {
		cfg := FedProx(20, 10, 10, 0.01, 0)
		cfg.Straggler = policy
		cfg.StragglerFraction = 0.9
		h, err := Run(m, fed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return h.Final().TrainLoss
	}
	drop, agg := mk(DropStragglers), mk(AggregatePartial)
	if agg >= drop {
		t.Fatalf("aggregating partial work (%g) not better than dropping (%g)", agg, drop)
	}
}

func TestRunDropAllParticipantsKeepsModel(t *testing.T) {
	m, fed := tinyWorkload()
	cfg := FedAvg(3, 5, 3, 0.01)
	cfg.StragglerFraction = 1.0 // every selected device dropped every round
	h, err := Run(m, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range h.Points {
		if p.TrainLoss != h.Points[0].TrainLoss {
			t.Fatal("model changed despite zero participants")
		}
		if p.Round > 0 && p.Participants != 0 {
			t.Fatalf("round %d reported %d participants", p.Round, p.Participants)
		}
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	m, fed := tinyWorkload()
	if _, err := Run(m, fed, Config{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestEvalEveryThinsHistory(t *testing.T) {
	m, fed := tinyWorkload()
	cfg := FedProx(10, 5, 2, 0.01, 0)
	cfg.EvalEvery = 5
	h, err := Run(m, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRounds := []int{0, 5, 10}
	if len(h.Points) != len(wantRounds) {
		t.Fatalf("points = %d, want %d", len(h.Points), len(wantRounds))
	}
	for i, p := range h.Points {
		if p.Round != wantRounds[i] {
			t.Fatalf("point %d at round %d, want %d", i, p.Round, wantRounds[i])
		}
	}
}

func TestTrackGammaRecordsValues(t *testing.T) {
	m, fed := tinyWorkload()
	cfg := FedProx(3, 5, 3, 0.01, 1)
	cfg.TrackGamma = true
	h, err := Run(m, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := h.Final()
	if !(p.MeanGamma >= 0 && p.MeanGamma <= 2) {
		t.Fatalf("MeanGamma = %g, want a sane inexactness value", p.MeanGamma)
	}
}

func TestTrackDissimilarityRecords(t *testing.T) {
	m, fed := tinyWorkload()
	cfg := FedProx(2, 5, 2, 0.01, 0)
	cfg.TrackDissimilarity = true
	h, err := Run(m, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range h.Points {
		if !(p.GradVar >= 0) { // also catches NaN
			t.Fatalf("GradVar = %g at round %d", p.GradVar, p.Round)
		}
		if !(p.B >= 0) {
			t.Fatalf("B = %g at round %d", p.B, p.Round)
		}
	}
}

func TestWeightedSimpleAvgScheme(t *testing.T) {
	m, fed := tinyWorkload()
	cfg := FedProx(5, 5, 3, 0.01, 0)
	cfg.Sampling = WeightedSimpleAvg
	h, err := Run(m, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h.Final().TrainLoss >= h.Points[0].TrainLoss {
		t.Fatal("weighted-sampling scheme failed to make progress")
	}
}

func TestMuControllerHeuristic(t *testing.T) {
	c := newMuController(0.5, 0.1, 3)
	c.Observe(1.0) // baseline
	c.Observe(1.2) // increase
	if got := c.Mu(); got != 0.6 {
		t.Fatalf("mu after rise = %g, want 0.6", got)
	}
	c.Observe(1.1)
	c.Observe(1.0)
	if got := c.Mu(); got != 0.6 {
		t.Fatalf("mu mid-streak = %g, want 0.6", got)
	}
	c.Observe(0.9) // third consecutive decrease -> step down
	if got := c.Mu(); got < 0.499 || got > 0.501 {
		t.Fatalf("mu after streak = %g, want 0.5", got)
	}
}

func TestMuControllerFloorsAtZero(t *testing.T) {
	c := newMuController(0.05, 0.1, 1)
	c.Observe(1.0)
	c.Observe(0.9)
	if got := c.Mu(); got != 0 {
		t.Fatalf("mu = %g, want floored 0", got)
	}
}

func TestMuControllerFlatLoss(t *testing.T) {
	c := newMuController(0.3, 0.1, 2)
	c.Observe(1.0)
	c.Observe(1.0)
	c.Observe(1.0)
	if got := c.Mu(); got != 0.3 {
		t.Fatalf("mu after flat losses = %g, want unchanged 0.3", got)
	}
}

func TestAdaptiveMuRunMovesMu(t *testing.T) {
	m, fed := tinyWorkload()
	cfg := FedProx(12, 8, 5, 0.01, 1)
	cfg.AdaptiveMu = true
	h, err := Run(m, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	moved := false
	for _, p := range h.Points {
		if p.Mu != 1 {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("adaptive mu never moved from its initial value on a converging run")
	}
}

func TestHistoryHelpers(t *testing.T) {
	h := &History{Label: "x", Points: []Point{
		{Round: 0, TrainLoss: 2.0, TestAcc: 0.1},
		{Round: 1, TrainLoss: 1.0, TestAcc: 0.5},
		{Round: 2, TrainLoss: 0.99995, TestAcc: 0.6},
	}}
	if h.Final().Round != 2 {
		t.Fatal("Final wrong")
	}
	if got := h.BestAccuracy(); got != 0.6 {
		t.Fatalf("BestAccuracy = %g", got)
	}
	if !h.Converged(1e-4) {
		t.Fatal("Converged missed the flat step")
	}
	if h.Diverged(0.5, 1) {
		t.Fatal("Diverged on a decreasing series")
	}
	up := &History{Points: []Point{{TrainLoss: 1}, {TrainLoss: 1.2}, {TrainLoss: 2.6}}}
	if !up.Diverged(1.0, 2) {
		t.Fatal("Diverged missed a 1.6 rise over 2 points")
	}
	if got, want := len(h.Losses()), 3; got != want {
		t.Fatalf("Losses len = %d", got)
	}
	if got := h.Accuracies()[1]; got != 0.5 {
		t.Fatalf("Accuracies[1] = %g", got)
	}
	if h.String() == "" {
		t.Fatal("empty history string")
	}
}

func TestSettledAccuracy(t *testing.T) {
	// Converging series: settle at the first flat step.
	conv := &History{Points: []Point{
		{TrainLoss: 2, TestAcc: 0.1},
		{TrainLoss: 1, TestAcc: 0.4},
		{TrainLoss: 0.99999, TestAcc: 0.55},
		{TrainLoss: 0.9, TestAcc: 0.7},
	}}
	if got := conv.SettledAccuracy(1e-4, 1, 2); got != 0.55 {
		t.Fatalf("converged settled accuracy = %g, want 0.55", got)
	}
	// Diverging series: settle at the point before the rise window.
	div := &History{Points: []Point{
		{TrainLoss: 1.0, TestAcc: 0.6},
		{TrainLoss: 1.4, TestAcc: 0.5},
		{TrainLoss: 2.5, TestAcc: 0.2},
	}}
	if got := div.SettledAccuracy(1e-4, 1, 2); got != 0.6 {
		t.Fatalf("diverged settled accuracy = %g, want 0.6", got)
	}
	// Neither: final accuracy.
	plain := &History{Points: []Point{
		{TrainLoss: 2, TestAcc: 0.1},
		{TrainLoss: 1.5, TestAcc: 0.3},
	}}
	if got := plain.SettledAccuracy(1e-4, 1, 1); got != 0.3 {
		t.Fatalf("plain settled accuracy = %g, want 0.3", got)
	}
}

func TestCostAccounting(t *testing.T) {
	m, fed := tinyWorkload()
	mk := func(policy StragglerPolicy) Cost {
		cfg := FedProx(5, 10, 4, 0.01, 0)
		cfg.Straggler = policy
		cfg.StragglerFraction = 0.5
		cfg.EvalEvery = 5
		h, err := Run(m, fed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return h.Final().Cost
	}
	drop, agg := mk(DropStragglers), mk(AggregatePartial)
	// Devices perform identical work under both policies (same env).
	if drop.DeviceEpochs != agg.DeviceEpochs {
		t.Fatalf("device epochs differ: %d vs %d", drop.DeviceEpochs, agg.DeviceEpochs)
	}
	if drop.WastedEpochs == 0 || agg.WastedEpochs != 0 {
		t.Fatalf("waste accounting wrong: drop=%d agg=%d", drop.WastedEpochs, agg.WastedEpochs)
	}
	paramBytes := int64(m.NumParams() * 8)
	// 5 rounds x 10 selected devices download each round.
	if want := 5 * 10 * paramBytes; drop.DownlinkBytes != want {
		t.Fatalf("downlink = %d, want %d", drop.DownlinkBytes, want)
	}
	// Aggregate uploads from all 10; drop only from the 5 non-stragglers.
	if agg.UplinkBytes != 2*drop.UplinkBytes {
		t.Fatalf("uplink: agg %d, drop %d (want 2x)", agg.UplinkBytes, drop.UplinkBytes)
	}
}

func TestCostAdd(t *testing.T) {
	c := Cost{UplinkBytes: 1, DownlinkBytes: 2, DeviceEpochs: 3, WastedEpochs: 4}
	c.Add(Cost{UplinkBytes: 10, DownlinkBytes: 20, DeviceEpochs: 30, WastedEpochs: 40})
	if c.UplinkBytes != 11 || c.DownlinkBytes != 22 || c.DeviceEpochs != 33 || c.WastedEpochs != 44 {
		t.Fatalf("Cost.Add wrong: %+v", c)
	}
}

func TestSolvePoolCoversAll(t *testing.T) {
	p := newSolvePool(4, 0)
	hits := make([]int, 37)
	futs := make([]*solveFuture, len(hits))
	for i := range hits {
		futs[i] = p.submit(func() (Reply, error) {
			hits[i]++
			return Reply{Device: i}, nil
		})
	}
	for i, f := range futs {
		if r, err := f.wait(); err != nil || r.Device != i {
			t.Fatalf("future %d joined reply %d (err %v)", i, r.Device, err)
		}
	}
	p.close()
	for i, c := range hits {
		if c != 1 {
			t.Fatalf("index %d hit %d times", i, c)
		}
	}
}
