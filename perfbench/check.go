package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"fedprox/internal/core"
	"fedprox/internal/tensor"
)

// defaultSeed is the seed expected.json holds the outputs of.
const defaultSeed = 1

// expectedJSON holds, per workload, the outputs of a full-size run at
// defaultSeed. When a deliberate change to the program moves them, the
// failing check prints the new values in this file's format.
//
//go:embed expected.json
var expectedJSON []byte

// expectation is the part of a run's output that the default seed pins.
type expectation struct {
	FinalLoss         float64 `json:"final_loss"`
	FinalAcc          float64 `json:"final_acc"`
	UplinkBytes       int64   `json:"uplink_bytes"`
	DownlinkBytes     int64   `json:"downlink_bytes"`
	EvalBytes         int64   `json:"eval_bytes"`
	WireUplinkBytes   int64   `json:"wire_uplink_bytes"`
	WireDownlinkBytes int64   `json:"wire_downlink_bytes"`
	VirtualS          float64 `json:"virtual_s"`
}

func observed(h *core.History) expectation {
	fin := h.Final()
	return expectation{
		FinalLoss:         fin.TrainLoss,
		FinalAcc:          fin.TestAcc,
		UplinkBytes:       fin.Cost.UplinkBytes,
		DownlinkBytes:     fin.Cost.DownlinkBytes,
		EvalBytes:         fin.Cost.EvalBytes,
		WireUplinkBytes:   fin.Cost.WireUplinkBytes,
		WireDownlinkBytes: fin.Cost.WireDownlinkBytes,
		VirtualS:          virtualS(h.VirtualDuration()),
	}
}

// checkOutputs checks one run's History. At the default seed and full
// size it must equal expected.json; at every seed it must meet the
// invariants; and at other seeds fednet-mnist must reproduce the
// in-process simulator.
func checkOutputs(w *workload, in *inputs, h *core.History, seed uint64, sz size) error {
	if err := invariants(in, h); err != nil {
		return err
	}
	if sz != fullSize {
		return nil
	}
	if seed == defaultSeed {
		var want map[string]expectation
		if err := json.Unmarshal(expectedJSON, &want); err != nil {
			return fmt.Errorf("expected.json: %w", err)
		}
		got := observed(h)
		if got != want[w.name] {
			b, _ := json.Marshal(got)
			return fmt.Errorf("outputs differ from expected.json; this run gives %q: %s", w.name, b)
		}
		return nil
	}
	if w.name == "fednet-mnist" {
		return matchesSimulator(in, h)
	}
	return nil
}

// invariants are the checks that hold at any seed: every evaluated loss
// is finite, a synchronous MNIST run ends below its round-0 loss, and
// the encoded bytes equal the analytic comm.Spec.WireSize accounting.
func invariants(in *inputs, h *core.History) error {
	if len(h.Points) == 0 {
		return errors.New("no evaluated points")
	}
	for _, p := range h.Points {
		if math.IsNaN(p.TrainLoss) || math.IsInf(p.TrainLoss, 0) {
			return fmt.Errorf("round %d: loss %g is not finite", p.Round, p.TrainLoss)
		}
	}
	if in.fed != nil {
		if first, last := h.Points[0].TrainLoss, h.Final().TrainLoss; !(last < first) {
			return fmt.Errorf("final loss %g is not below the round-0 loss %g", last, first)
		}
	}
	c := h.Final().Cost
	if got, want := c.UplinkBytes+c.DownlinkBytes+c.EvalBytes, analyticBytes(in, h); got != want {
		return fmt.Errorf("encoded bytes %d, analytic accounting gives %d", got, want)
	}
	return nil
}

// analyticBytes prices the run's transfers with comm.Spec.WireSize: a
// downlink per dispatch, an uplink per reply that was not lost, and,
// with a codec, one full-width eval broadcast per evaluated point.
// Without a codec a transfer is 8 bytes a parameter and evaluations are
// not charged.
func analyticBytes(in *inputs, h *core.History) int64 {
	p := in.mdl.NumParams()
	down, up := int64(8*p), int64(8*p)
	dispatches, lost := transfers(in.cfg, h)
	if !in.cfg.Codec.Enabled() {
		return dispatches*down + (dispatches-lost)*up
	}
	d, u := in.cfg.CommSpecs()
	down, up = d.WireSize(p), u.WireSize(p)
	// Evaluation runs at full width whatever the run's precision.
	d.Precision = tensor.F64
	return dispatches*down + (dispatches-lost)*up + int64(len(h.Points))*d.WireSize(p)
}

// transfers returns the run's dispatches and how many of their replies
// were lost in transit.
func transfers(cfg core.Config, h *core.History) (dispatches, lost int64) {
	if !cfg.Async.Enabled() {
		// Partial work is aggregated, so every selected device is
		// contacted.
		return int64(cfg.Rounds * cfg.ClientsPerRound), 0
	}
	for _, a := range h.Arrivals {
		if a.Drop == core.DropLost {
			lost++
		}
	}
	return int64(len(h.Arrivals)), lost
}

// operations counts a run's dispatches plus evaluation passes.
func operations(cfg core.Config, h *core.History) int64 {
	d, _ := transfers(cfg, h)
	return d + int64(len(h.Points))
}

// plannedOperations is operations for a run that returned no History.
func plannedOperations(cfg core.Config) int64 {
	cfg = cfg.WithDefaults()
	evals := 0
	for r := 0; r <= cfg.Rounds; r++ {
		if r%cfg.EvalEvery == 0 || r == cfg.Rounds {
			evals++
		}
	}
	return int64(cfg.Rounds*cfg.ClientsPerRound + evals)
}

// matchesSimulator reruns fednet-mnist's configuration in process and
// requires the same trajectory and encoded bytes, bit for bit.
func matchesSimulator(in *inputs, h *core.History) error {
	sim, err := core.Run(in.mdl, in.fed, in.cfg)
	if err != nil {
		return fmt.Errorf("simulator: %w", err)
	}
	if len(sim.Points) != len(h.Points) {
		return fmt.Errorf("simulator evaluated %d points, fednet %d", len(sim.Points), len(h.Points))
	}
	for i, s := range sim.Points {
		d := h.Points[i]
		sc, dc := s.Cost, d.Cost
		if s.TrainLoss != d.TrainLoss || s.TestAcc != d.TestAcc ||
			sc.UplinkBytes != dc.UplinkBytes || sc.DownlinkBytes != dc.DownlinkBytes || sc.EvalBytes != dc.EvalBytes {
			return fmt.Errorf("round %d: fednet (loss %v, acc %v, cost %+v) differs from the simulator (loss %v, acc %v, cost %+v)",
				s.Round, d.TrainLoss, d.TestAcc, dc, s.TrainLoss, s.TestAcc, sc)
		}
	}
	return nil
}

// fingerprint hashes everything a History holds, floats by their bits,
// so two runs of one program on one input must give the same value.
func fingerprint(h *core.History) uint64 {
	f := fnv.New64a()
	// %v prints each float in the fewest digits that read back exactly.
	fmt.Fprintf(f, "%s|%v|", h.Label, h.Points)
	var b [8 * 8]byte
	for _, a := range h.Arrivals {
		for i, v := range []uint64{
			uint64(a.Device), uint64(a.Seq), math.Float64bits(a.Sent), math.Float64bits(a.Arrived),
			uint64(a.Staleness), uint64(a.Drop), uint64(a.EpochBudget), uint64(a.EpochsDone),
		} {
			binary.LittleEndian.PutUint64(b[8*i:], v)
		}
		f.Write(b[:])
	}
	return f.Sum64()
}
