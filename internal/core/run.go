package core

import (
	"fmt"

	"fedprox/internal/data"
	"fedprox/internal/metrics"
	"fedprox/internal/model"
	"fedprox/internal/tensor"
	"fedprox/internal/vtime"
)

// Fleet is the lazy population view the in-process drivers run over:
// population size plus materialize-shard-on-demand. It is an alias for
// data.Fleet (the metrics package shares it without an import cycle);
// any fully materialized *data.Federated adapts via its Fleet method,
// and generators like synthetic.NewFleet implement it natively so a
// 10^5–10^6-device run never holds the population's examples at once.
type Fleet = data.Fleet

// Run executes one federated optimization run of cfg on (m, fed) and
// returns the evaluated trajectory. It is RunFleet over the eager Fleet
// view of fed; results are bit-identical to pre-Fleet versions of this
// API.
func Run(m model.Model, fed *data.Federated, cfg Config) (*History, error) {
	return RunFleet(m, fed.Fleet(), cfg)
}

// RunFleet executes one federated optimization run of cfg over a lazy
// fleet and returns the evaluated trajectory.
//
// RunFleet drives the shared core.Coordinator over the in-process
// transport: one Device hosting every fleet device serves the device
// side (decode, solve, privacy, encode) on a bounded solve pool, and
// evaluations are metric passes over the fleet. Synchronous rounds are
// served immediately, charging each round's critical path to the
// virtual clock when a latency model is attached; the asynchronous
// modes run on the virtual-time arrival queue (vsim.go). Per-round
// memory is O(cohort): shards are materialized per dispatch and
// evaluation streams over the fleet.
func RunFleet(m model.Model, fl Fleet, cfg Config) (*History, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	async := cfg.Async.Enabled()
	if async && !cfg.VTime.Enabled() {
		return nil, fmt.Errorf("core: %s aggregation in the simulator requires a virtual-time latency model (set Config.VTime.Model, see internal/vtime); the fednet runtime executes it against the real clock", cfg.Async.Mode)
	}
	coord, dev, err := newSimPair(m, fl, cfg)
	if err != nil {
		return nil, err
	}
	t := &simTransport{m: m, fl: fl, dev: dev, async: async}
	if cfg.VTime.Enabled() {
		t.vt = newVtimer(coord)
		coord.Tick(t.vt.eng.Now())
	}
	inFlight := cfg.ClientsPerRound
	if async {
		inFlight = cfg.Async.WithDefaults(cfg.ClientsPerRound).MaxInFlight
		// The uplink leg is charged before the solve completes, which is
		// only sound because every codec's encoded size is a pure
		// function of the parameter count (asserted against the realized
		// reply at arrival).
		t.predictedUp = t.vt.paramBytes
		if cfg.Codec.Enabled() {
			_, up := cfg.CommSpecs()
			t.predictedUp = up.WireSize(m.NumParams())
		}
	}
	t.pool = newSolvePool(cfg.Parallelism, inFlight)
	defer t.pool.close()

	cmds, err := coord.Start()
	if err != nil {
		return nil, err
	}
	if _, err := Drive(coord, cmds, t); err != nil {
		return nil, err
	}
	return coord.History(), nil
}

// newSimPair builds the two halves of an in-process run: a coordinator
// with every fleet device registered as one in-process worker, and one
// core.Device hosting the whole fleet lazily — the same device runtime
// the fednet workers wrap, so device-side behavior cannot drift between
// the simulator and the deployment. With a codec configured the device
// gets its own link endpoint (the simulator's link state lives where the
// deployment's does), and the pair is bound so checkpoints capture both
// endpoints' codec state.
func newSimPair(m model.Model, fl Fleet, cfg Config) (*Coordinator, *Device, error) {
	coord, err := NewCoordinator(m, cfg, CoordinatorOptions{NumDevices: fl.NumDevices()})
	if err != nil {
		return nil, nil, err
	}
	dev := NewFleetDevice(m, fl, DeviceOptions{
		Solver:     cfg.Solver,
		Privacy:    cfg.Privacy,
		TrackGamma: cfg.TrackGamma,
		Precision:  cfg.Precision,
	})
	if cfg.Codec.Enabled() {
		down, up := cfg.CommSpecs()
		if err := dev.InstallLinks(down, up); err != nil {
			return nil, nil, err
		}
	}
	coord.BindDevice(dev)
	if _, err := coord.RegisterWorker(dev.Hosted()); err != nil {
		return nil, nil, err
	}
	return coord, dev, nil
}

// simTransport is the in-process transport: dispatches are solved on
// one fleet Device and evaluations are metric passes over the fleet.
// Synchronous batches are served immediately; asynchronous dispatches
// become arrivals on the virtual-time queue (vsim.go).
type simTransport struct {
	m     model.Model
	fl    Fleet
	dev   *Device
	pool  *solvePool
	vt    *vtimer // nil without a latency model
	async bool

	predictedUp int64 // async: the uplink bytes every arrival is priced at
}

func (t *simTransport) Send(ds []Dispatch) ([]Reply, error) {
	if t.async {
		t.enqueue(ds)
		return nil, nil
	}
	return serveNow(t.pool, t.dev, t.vt, ds)
}

func (t *simTransport) Evaluate(v Evaluate) (EvalResult, error) { return simEval(t.m, t.fl, v), nil }

func (t *simTransport) Wait() ([]Command, bool, error) { return t.vt.wait() }

func (t *simTransport) clock() *vtimer { return t.vt }

func (t *simTransport) observeLoss(params []float64) float64 {
	return metrics.FleetLoss(t.m, t.fl, params)
}

// simEval answers an Evaluate command with in-process metric passes over
// the whole network, at the (possibly codec-decoded) eval broadcast
// view. The passes stream over the fleet, so evaluation memory is
// O(workers × shard).
func simEval(m model.Model, fl Fleet, v Evaluate) EvalResult {
	res := EvalResult{
		Loss: metrics.FleetLoss(m, fl, v.Params),
		Acc:  metrics.FleetAccuracy(m, fl, v.Params),
	}
	if v.TrackDissimilarity {
		res.GradVar, res.B = metrics.FleetDissimilarity(m, fl, v.Params)
	}
	return res
}

// serveNow serves one synchronous round's dispatches on the solve pool
// (the decode → solve → probe → encode path lives entirely in
// core.Device) and, when a latency model is attached, stamps each reply
// with its virtual transfer timing (sequence numbers allocated in
// selection order, the ordering rule the arrival race uses). The
// compute leg is charged for the epochs the device actually ran — a
// device-side budget that truncates the solve also shortens the round's
// critical path.
func serveNow(pool *solvePool, dev *Device, vt *vtimer, ds []Dispatch) ([]Reply, error) {
	futs := make([]*solveFuture, len(ds))
	for i, d := range ds {
		futs[i] = pool.submit(func() (Reply, error) { return dev.HandleDispatch(d) })
	}
	replies := make([]Reply, len(ds))
	for i, f := range futs {
		r, err := f.wait()
		if err != nil {
			return nil, err
		}
		replies[i] = r
	}
	if vt != nil {
		for i, d := range ds {
			seq := vt.seq
			vt.seq++
			replies[i].Timed = true
			replies[i].Seq = seq
			replies[i].Rel = vt.lat.DownlinkSeconds(seq, d.Device, d.DownBytes) +
				vt.lat.ComputeSeconds(d.Round, d.Device, replies[i].EpochsDone) +
				vt.lat.UplinkSeconds(seq, d.Device, vt.uplinkBytes(replies[i]))
			replies[i].Lost = vt.lat.Dropped(seq, d.Device)
		}
	}
	return replies, nil
}

// vtimer is an in-process transport's virtual clock: the engine, the
// latency model, the per-transfer sequence counters, and the arrivals
// scheduled on the engine. The policy decisions (deadline, byte budget)
// live in the coordinator; this type only turns bytes and epochs into
// seconds and delivers arrivals when the engine reaches them.
type vtimer struct {
	lat        vtime.LatencyModel
	eng        *vtime.Engine
	coord      *Coordinator
	paramBytes int64 // a raw reply's uplink: the coordinator's deployment word size
	seq        int   // per-dispatch jitter/loss stream index
	evalSeq    int   // per-eval-broadcast stream index
	// localEval marks a clock whose evaluations are answered locally
	// (tier edges: only the root measures), so no eval broadcast is
	// charged to it.
	localEval bool

	out []Command // commands emitted by the arrival that fired last
	err error
}

func newVtimer(coord *Coordinator) *vtimer {
	return &vtimer{lat: coord.cfg.VTime.Model, eng: vtime.NewEngine(), coord: coord, paramBytes: coord.paramBytes}
}

// uplinkBytes returns a reply's encoded uplink size, falling back to the
// uncompressed parameter bytes for raw in-process replies — shared by
// the synchronous and asynchronous transports so the two transfer
// charges cannot drift.
func (v *vtimer) uplinkBytes(r Reply) int64 {
	if r.Update != nil {
		return r.Update.WireBytes()
	}
	return v.paramBytes
}

// chargeEval advances the clock by the evaluation broadcast's transfer
// time. Eval traffic rides the shared downlink (vtime.EvalDevice), so a
// codec that shrinks the eval broadcast also shrinks the time it costs —
// the virtual-clock counterpart of Cost.EvalBytes.
func (v *vtimer) chargeEval(bytes int64) {
	v.eng.Advance(v.lat.DownlinkSeconds(v.evalSeq, vtime.EvalDevice, bytes))
	v.evalSeq++
}

// at schedules an arrival: when the engine reaches virtual time when,
// the coordinator's clock is synced and deliver runs; the commands it
// emits come out of the next wait.
func (v *vtimer) at(when float64, deliver func() ([]Command, error)) {
	v.eng.Schedule(when, func() {
		v.coord.Tick(v.eng.Now())
		v.out, v.err = deliver()
	})
}

// wait fires the earliest scheduled arrival; ok is false when nothing
// is scheduled (always, for a nil clock).
func (v *vtimer) wait() (cmds []Command, ok bool, err error) {
	if v == nil || !v.eng.Step() {
		return nil, false, nil
	}
	cmds, err = v.out, v.err
	v.out, v.err = nil, nil
	return cmds, true, err
}

// Label renders the conventional method name for a configuration, e.g.
// "FedAvg" or "FedProx(mu=1)". Non-default local solvers are appended as
// a suffix, e.g. "FedProx(mu=1)+adam".
func Label(cfg Config) string {
	var base string
	switch {
	case cfg.AdaptiveMu:
		base = fmt.Sprintf("FedProx(adaptive mu0=%g)", cfg.Mu)
	case cfg.Mu == 0 && cfg.Straggler == DropStragglers:
		base = "FedAvg"
	case cfg.Mu == 0:
		base = "FedProx(mu=0)"
	default:
		base = fmt.Sprintf("FedProx(mu=%g)", cfg.Mu)
	}
	if cfg.Solver != nil && cfg.Solver.Name() != "sgd" {
		base += "+" + cfg.Solver.Name()
	}
	if cfg.Codec.Enabled() {
		base += " @" + cfg.Codec.String()
		if cfg.DownlinkCodec.Enabled() && cfg.DownlinkCodec != cfg.Codec {
			base += "/down:" + cfg.DownlinkCodec.String()
		}
	}
	if cfg.Async.Enabled() {
		a := cfg.Async.WithDefaults(cfg.ClientsPerRound)
		base += fmt.Sprintf(" [%s a=%g p=%g", a.Mode, a.Alpha, a.StalenessExponent)
		if a.Mode == Buffered {
			base += fmt.Sprintf(" K=%d", a.BufferK)
		}
		base += "]"
	}
	if cfg.DeviceBudget != nil {
		base += " [budget]"
	}
	if cfg.Precision == tensor.F32 {
		base += " [f32]"
	}
	if cfg.FoldWeight == WeightByEpochs {
		base += " [w=epochs]"
	}
	if cfg.VTime.Enabled() {
		base += " [vtime]"
	}
	return base
}
