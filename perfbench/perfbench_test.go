package main

import (
	"encoding/json"
	"os"
	"sync/atomic"
	"testing"

	"fedprox/internal/core"
	"fedprox/internal/model"
	"fedprox/internal/model/linear"
	"fedprox/internal/solver"
)

// mini is every workload at a size a test can afford.
var mini = size{
	mnistDevices:     30,
	mnistSampleScale: 0.05,
	mnistRounds:      4,
	fleetDevices:     2000,
	fleetRounds:      10,
}

func TestTracedRunReturnsUntracedHistory(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in := w.prepare(3, mini)
			plain, err := w.run(in, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkOutputs(w, in, plain.hist, 3, mini); err != nil {
				t.Fatal(err)
			}
			traced, err := w.run(in, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			if fingerprint(traced.hist) != fingerprint(plain.hist) {
				t.Fatalf("traced History differs:\n%v\nuntraced:\n%v", traced.hist, plain.hist)
			}
		})
	}
}

func TestFednetMatchesSimulator(t *testing.T) {
	w, _ := lookup("fednet-mnist")
	in := w.prepare(3, mini)
	o, err := w.run(in, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if err := matchesSimulator(in, o.hist); err != nil {
		t.Fatal(err)
	}
}

// hidden32 is a model without a float32 path.
type hidden32 struct{ model.Model }

func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	if _, ok := tr.model(linear.New(2, 2)).(model.Model32); !ok {
		t.Error("wrapped linear model lost model.Model32")
	}
	if _, ok := tr.model(hidden32{linear.New(2, 2)}).(model.Model32); ok {
		t.Error("wrapped model gained model.Model32")
	}
	var n atomic.Int64
	if _, ok := probeSolver(solver.SGDSolver{}, &n, tr).(solver.LocalSolver32); !ok {
		t.Error("wrapped SGD lost solver.LocalSolver32")
	}
	if _, ok := probeSolver(solver.MomentumSolver{Beta: 0.9}, &n, tr).(solver.LocalSolver32); ok {
		t.Error("wrapped momentum solver gained solver.LocalSolver32")
	}
}

func TestSolverNameKeepsLabel(t *testing.T) {
	for _, s := range []solver.LocalSolver{solver.SGDSolver{}, solver.GDSolver{}} {
		cfg := mnistConfig(1, mini)
		cfg.Solver = s
		want := core.Label(cfg)
		cfg.Solver = probeSolver(s, new(atomic.Int64), newTracer())
		if got := core.Label(cfg); got != want {
			t.Errorf("label %q, want %q", got, want)
		}
	}
}

// TestBenchReportsEveryMetric runs the whole benchmark at the miniature
// size, untraced and traced, on every workload.
func TestBenchReportsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r := bench(w, 3, 0, traced, mini)
			if !r.correct {
				t.Fatalf("%s traced=%v: %v", w.name, traced, r.problems)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(r.metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(r.metrics), len(want))
			}
			for _, m := range want {
				if _, ok := r.metrics[m.name]; !ok {
					t.Errorf("%s traced=%v: no %s", w.name, traced, m.name)
				}
			}
		}
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		prog []metric
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.json), len(c.prog))
		}
		for i, m := range c.json {
			if m.Name != c.prog[i].name || m.Unit != c.prog[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), program %s (%s)", i, m.Name, m.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}
