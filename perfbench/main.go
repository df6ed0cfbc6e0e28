// Command perfbench is the repository's benchmark. It runs one workload
// through the public entry points (core.Run / core.RunFleet, and
// fednet.Server with fednet.Worker over loopback TCP) for a fixed
// amount of work, repeats it for the given time, checks the outputs,
// and prints a table followed by one JSON line of metrics:
//
//	perfbench --workload sim-mnist --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones of untraced runs.
// With --trace 1 untraced and traced runs alternate, and the metrics
// are the per-layer ones of the traced run (see trace.go), including
// the tracing overhead. The workloads and layers are described in
// LAYERS.md.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run: sim-mnist, fleet-1e5 or fednet-mnist")
	seed := flag.Uint64("seed", defaultSeed, "seed of the generated inputs and of the run configuration")
	secs := flag.Float64("seconds", 20, "how long to repeat the measured run")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.Parse()
	w, err := lookup(*name)
	if err != nil || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload sim-mnist|fleet-1e5|fednet-mnist and --trace 0|1")
		os.Exit(2)
	}
	r := bench(w, *seed, *secs, *trace == 1, fullSize)
	r.print(os.Stdout)
	if !r.correct {
		os.Exit(1)
	}
}

// report is the result of one benchmark run.
type report struct {
	workload  string
	seed      uint64
	traced    bool
	correct   bool
	problems  []string
	attempted int64
	failed    int64
	plainReps int
	traceReps int
	finalLoss float64
	finalAcc  float64
	runs      []float64 // untraced run times, steal removed
	stolen    []float64 // the steal removed from each
	work      int64     // examples one run processes
	metrics   map[string]float64
}

func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// bench sets the workload up several times, then alternates measured
// runs (untraced, and traced when traced is set) until secs have passed,
// and checks every run's outputs.
func bench(w *workload, seed uint64, secs float64, traced bool, sz size) *report {
	r := &report{workload: w.name, seed: seed, traced: traced, correct: true}

	var gens []float64
	var in *inputs
	for range w.setups {
		in = nil
		runtime.GC()
		t0, steal0 := time.Now(), stolenSeconds()
		in = w.prepare(seed, sz)
		gens = append(gens, time.Since(t0).Seconds()-(stolenSeconds()-steal0))
	}
	runtime.GC()

	minPlain, minTraced := 2, 0
	if traced {
		minPlain, minTraced = 1, 1
	}
	var plain, withTrace []*outcome
	var tracers []*tracer
	var ref uint64
	start := time.Now()
	for i := 0; time.Since(start).Seconds() < secs || len(plain) < minPlain || len(withTrace) < minTraced; i++ {
		var tr *tracer
		if traced && i%2 == 1 {
			tr = newTracer()
		}
		// Start every run from a collected heap.
		runtime.GC()
		o, err := w.run(in, tr)
		if err != nil {
			r.attempted += plannedOperations(in.cfg)
			r.fail("run %d: %v", i, err)
			break
		}
		ops := operations(in.cfg, o.hist)
		r.attempted += ops
		_, lost := transfers(in.cfg, o.hist)
		r.failed += lost
		fp := fingerprint(o.hist)
		switch {
		case i == 0:
			ref = fp
			if err := checkOutputs(w, in, o.hist, seed, sz); err != nil {
				r.fail("output check: %v", err)
			}
			r.finalLoss, r.finalAcc = o.hist.Final().TrainLoss, o.hist.Final().TestAcc
		case fp != ref:
			r.fail("run %d (traced %v): History differs from the first run's", i, tr != nil)
		}
		if tr == nil {
			plain = append(plain, o)
			continue
		}
		if c, want := countEvents(tr.events).dispatches, ops-int64(len(o.hist.Points)); int64(c) != want {
			r.fail("traced run %d: %d dispatch events, expected %d", i, c, want)
		}
		withTrace = append(withTrace, o)
		tracers = append(tracers, tr)
	}
	r.plainReps, r.traceReps = len(plain), len(withTrace)
	if len(plain) >= minPlain && len(withTrace) >= minTraced {
		r.summarize(in, gens, plain, withTrace, tracers)
	}
	if !r.correct {
		r.failed = r.attempted
	}
	return r
}

// summarize computes the reported metrics from the measured runs.
func (r *report) summarize(in *inputs, gens []float64, plain, withTrace []*outcome, tracers []*tracer) {
	runS := median(each(plain, (*outcome).runS))
	if !r.traced {
		fin := plain[0].hist.Final().Cost
		bytes := fin.UplinkBytes + fin.DownlinkBytes + fin.EvalBytes
		if fin.WireUplinkBytes+fin.WireDownlinkBytes > 0 {
			bytes = fin.WireUplinkBytes + fin.WireDownlinkBytes
		}
		r.runs, r.work = each(plain, (*outcome).runS), in.work(plain[0])
		r.stolen = each(plain, func(o *outcome) float64 { return o.stolen })
		r.metrics = map[string]float64{
			"setup_s":         median(gens) + median(each(plain, func(o *outcome) float64 { return o.setupS })),
			"examples_per_s":  float64(r.work) / runS,
			"bytes_per_round": float64(bytes) / float64(in.cfg.Rounds),
			// The first run's, so the count of runs does not move it.
			"peak_mem_mb": float64(plain[0].sys) / (1 << 20),
		}
	} else {
		// Report the traced run of median wall time.
		walls := each(withTrace, (*outcome).runS)
		k := medianIndex(walls)
		r.metrics = layerMetrics(in, withTrace[k], tracers[k], median(gens))
		r.metrics["obs.trace_overhead"] = median(walls)/runS - 1
	}
	for name, v := range r.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s is %v", name, v)
		}
	}
}

func each(outs []*outcome, f func(*outcome) float64) []float64 {
	vals := make([]float64, len(outs))
	for i, o := range outs {
		vals[i] = f(o)
	}
	return vals
}

// medianIndex returns the index of the median of xs (the lower one of
// an even count).
func medianIndex(xs []float64) int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return cmp.Compare(xs[a], xs[b]) })
	return idx[(len(idx)-1)/2]
}

// print writes the human-readable table, then the JSON result line.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  untraced runs %d  traced runs %d\n", r.workload, r.seed, r.plainReps, r.traceReps)
	defs := endToEnd
	if r.traced {
		defs = perLayer
	} else {
		fmt.Fprintf(w, "  %-30s %16.6f\n", "final_loss", r.finalLoss)
		fmt.Fprintf(w, "  %-30s %16.6f\n", "final_acc", r.finalAcc)
		fmt.Fprintf(w, "  %-30s %16.6f  (%d of %d operations)\n", "failed_frac", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
		if len(r.runs) > 0 {
			fmt.Fprintf(w, "  %-30s %16.6f s  (median of %.4f, after removing %.4f s stolen)\n", "run_s", median(r.runs), r.runs, r.stolen)
		}
		fmt.Fprintf(w, "  %-30s %16d examples\n", "work", r.work)
	}
	out := map[string]any{}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		fmt.Fprintf(w, "  %-30s %16.6f %s\n", d.name, v, d.unit)
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	attempted := max(r.attempted, 1)
	// Only finite numbers are left, so this cannot fail.
	b, _ := json.Marshal(map[string]any{
		"correct":   r.correct,
		"attempted": attempted,
		"failed":    min(r.failed, attempted),
		"metrics":   out,
	})
	fmt.Fprintf(w, "%s\n", b)
}
