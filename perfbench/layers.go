package main

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"fedprox/internal/obs"
)

// metric is one reported metric, by name as BENCHMARK.json lists it.
type metric struct {
	name, unit string
}

// endToEnd are the untraced run's metrics.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"examples_per_s", "1/s"},
	{"bytes_per_round", "B"},
	{"peak_mem_mb", "MiB"},
}

// perLayer are the traced run's metrics. Every workload reports all of
// them; a layer a workload does not use reads 0.
var perLayer = []metric{
	{"data.gen_s", "s"},
	{"data.shards", "count"},
	{"data.shard_busy_s", "s"},
	{"data.shards_per_eval_device", "ratio"},
	{"solver.solves", "count"},
	{"solver.epochs", "count"},
	{"solver.busy_s", "s"},
	{"solver.examples_per_busy_s", "1/s"},
	{"model.grad_calls", "count"},
	{"model.loss_calls", "count"},
	{"model.predict_calls", "count"},
	{"metrics.eval_passes", "count"},
	{"metrics.eval_s", "s"},
	{"metrics.eval_share", "ratio"},
	{"metrics.devices_per_eval_s", "1/s"},
	{"core.dispatches", "count"},
	{"core.replies_folded", "count"},
	{"core.replies_dropped", "count"},
	{"core.folds", "count"},
	{"core.round_samples", "count"},
	{"core.round_ms_p50", "ms"},
	{"core.round_ms_tail", "ms"},
	{"core.round_tail_pct", "%"},
	{"core.self_s", "s"},
	{"comm.up_bytes", "B"},
	{"comm.down_bytes", "B"},
	{"comm.eval_bytes", "B"},
	{"comm.bytes_per_coord", "B"},
	{"vtime.virtual_s", "s"},
	{"fednet.bytes_read", "B"},
	{"fednet.bytes_written", "B"},
	{"fednet.frame_overhead", "ratio"},
	{"fednet.server_read_wait_s", "s"},
	{"fednet.write_s", "s"},
	{"fednet.worker_idle_s", "s"},
	{"obs.traced_run_s", "s"},
	{"obs.trace_overhead", "ratio"},
}

// layerMetrics reduces one traced run; genS is the median set-up
// generation time. The caller adds obs.trace_overhead, which compares
// several runs.
func layerMetrics(in *inputs, o *outcome, tr *tracer, genS float64) map[string]float64 {
	start, end := tr.at(o.start), tr.at(o.end)
	wall := seconds(end - start)
	fin := o.hist.Final()
	m := map[string]float64{}

	evals := evalWindows(tr.events)
	var evalNs int64
	for _, w := range evals {
		evalNs += w.dur()
	}
	devices := float64(in.fleet.NumDevices())

	m["data.gen_s"] = genS
	m["data.shards"] = float64(len(tr.shards))
	m["data.shard_busy_s"] = seconds(total(tr.shards))
	// Each dispatch materializes exactly one shard; the rest were
	// materialized by evaluation passes.
	m["data.shards_per_eval_device"] = ratio(float64(len(tr.shards)-len(tr.solves)), float64(len(evals))*devices)
	if len(tr.shards) == 0 {
		m["data.shards_per_eval_device"] = 0
	}

	busy := seconds(total(tr.solves))
	m["solver.solves"] = float64(len(tr.solves))
	m["solver.epochs"] = float64(tr.epochs.Load())
	m["solver.busy_s"] = busy
	m["solver.examples_per_busy_s"] = ratio(float64(o.solved), busy)

	m["model.grad_calls"] = float64(tr.gradCalls.Load())
	m["model.loss_calls"] = float64(tr.lossCalls.Load())
	m["model.predict_calls"] = float64(tr.predictCalls.Load())

	m["metrics.eval_passes"] = float64(len(evals))
	m["metrics.eval_s"] = seconds(evalNs)
	m["metrics.eval_share"] = ratio(seconds(evalNs), wall)
	m["metrics.devices_per_eval_s"] = ratio(float64(len(evals))*devices, seconds(evalNs))

	c := countEvents(tr.events)
	m["core.dispatches"] = float64(c.dispatches)
	m["core.replies_folded"] = float64(c.folded)
	m["core.replies_dropped"] = float64(c.dropped)
	m["core.folds"] = float64(c.folds)
	rounds := roundTimes(tr.events, evals)
	p50, tail, pct := percentiles(rounds)
	m["core.round_samples"] = float64(len(rounds))
	m["core.round_ms_p50"] = p50
	m["core.round_ms_tail"] = tail
	m["core.round_tail_pct"] = pct
	busySpans := slices.Concat(tr.solves, tr.shards, evals, tr.reads)
	m["core.self_s"] = wall - seconds(covered(busySpans, start, end))

	encoded := fin.Cost.UplinkBytes + fin.Cost.DownlinkBytes + fin.Cost.EvalBytes
	transfers := c.dispatches + c.folded + c.dropped - c.lost
	if fin.Cost.EvalBytes > 0 {
		transfers += len(evals)
	}
	m["comm.up_bytes"] = float64(fin.Cost.UplinkBytes)
	m["comm.down_bytes"] = float64(fin.Cost.DownlinkBytes)
	m["comm.eval_bytes"] = float64(fin.Cost.EvalBytes)
	m["comm.bytes_per_coord"] = ratio(float64(encoded), float64(transfers*in.mdl.NumParams()))

	m["vtime.virtual_s"] = virtualS(o.hist.VirtualDuration())

	read, written := tr.bytesRead.Load(), tr.bytesWritten.Load()
	m["fednet.bytes_read"] = float64(read)
	m["fednet.bytes_written"] = float64(written)
	m["fednet.frame_overhead"] = 0
	if read+written > 0 {
		m["fednet.frame_overhead"] = ratio(float64(read+written), float64(encoded))
	}
	m["fednet.server_read_wait_s"] = seconds(total(tr.reads))
	m["fednet.write_s"] = seconds(tr.writeNs.Load())
	m["fednet.worker_idle_s"] = seconds(tr.workerIdleNs.Load())

	m["obs.traced_run_s"] = o.runS()
	return m
}

// evalWindows returns one span per evaluation: from the coordinator
// event before each eval event to that eval event.
func evalWindows(events []stamped) []span {
	var out []span
	prev := int64(-1)
	for _, e := range events {
		switch e.kind {
		case obs.KindSpan, obs.KindWorkerJoin, obs.KindDeviceDispatch, obs.KindDeviceEval:
			continue // not coordinator decisions
		case obs.KindEval:
			if prev >= 0 {
				out = append(out, span{prev, e.at})
			}
		}
		prev = e.at
	}
	return out
}

type eventCounts struct {
	dispatches, folded, dropped, lost, folds int
}

func countEvents(events []stamped) eventCounts {
	var c eventCounts
	for _, e := range events {
		switch e.kind {
		case obs.KindDispatch:
			c.dispatches++
		case obs.KindReply:
			if e.folded {
				c.folded++
			} else {
				c.dropped++
			}
			if e.lost {
				c.lost++
			}
		case obs.KindFold:
			c.folds++
		}
	}
	return c
}

// roundTimes returns each round's (or async milestone's) wall time in
// ms: the interval from the run start or the previous round-close event
// to the round's own round-close event, less the evaluation windows
// inside it.
func roundTimes(events []stamped, evals []span) []float64 {
	var out []float64
	prev := int64(-1)
	for _, e := range events {
		switch {
		case e.kind == obs.KindRunStart:
			prev = e.at
		case e.kind == obs.KindRoundClose && prev >= 0:
			d := e.at - prev
			for _, w := range evals {
				d -= max(0, min(w.end, e.at)-max(w.start, prev))
			}
			out = append(out, float64(d)/1e6)
			prev = e.at
		}
	}
	return out
}

// percentiles returns the median and the highest percentile with at
// least ten samples beyond it, with that percentile's rank in percent.
// With ten samples or fewer the tail is the maximum.
func percentiles(xs []float64) (p50, tail, pct float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n <= 10 {
		return median(s), s[n-1], 100
	}
	return median(s), s[n-11], 100 * float64(n-10) / float64(n)
}

// covered returns how much of [start, end] the spans cover.
func covered(spans []span, start, end int64) int64 {
	clipped := make([]span, 0, len(spans))
	for _, s := range spans {
		s.start, s.end = max(s.start, start), min(s.end, end)
		if s.end > s.start {
			clipped = append(clipped, s)
		}
	}
	slices.SortFunc(clipped, func(a, b span) int { return cmp.Compare(a.start, b.start) })
	var sum, reach int64 = 0, start
	for _, s := range clipped {
		if s.end <= reach {
			continue
		}
		sum += s.end - max(s.start, reach)
		reach = s.end
	}
	return sum
}

func total(spans []span) int64 {
	var sum int64
	for _, s := range spans {
		sum += s.dur()
	}
	return sum
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// virtualS maps a run without a virtual clock (NaN) to 0.
func virtualS(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// median of xs; xs is not modified.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
