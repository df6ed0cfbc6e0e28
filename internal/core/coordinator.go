package core

// This file is the sans-I/O coordinator: every server-side decision of
// the FedProx protocol — device selection, straggler plans and policies,
// synchronous aggregation, the staleness-damped asynchronous folds,
// adaptive-μ control, codec link state, privacy hooks, and History/Cost
// accounting — lives here, behind an event-driven API with no I/O, no
// clocks, and no goroutines.
//
// The coordinator consumes events (RegisterWorker, HandleReply, Tick,
// WorkerLost, EvalDone, LossObserved) and emits commands (Dispatch,
// Evaluate, ObserveLoss, AdvanceClock, Checkpoint, Pause, Done). One
// loop, Drive (drive.go), executes them for every executor; what
// differs is only the Transport a reply arrives over:
//
//   - in process, immediately (core.Run's synchronous rounds) or on the
//     internal/vtime arrival queue (its asynchronous modes, vsim.go),
//   - from a recorded trace's tape (core.Replay),
//   - from a child coordinator's window (core.RunTiered),
//   - over TCP (internal/fednet's Server and Edge), where Dispatch
//     becomes a TrainRequest and Evaluate an EvalRequest.
//
// Because all aggregation arithmetic and every environment-stream draw
// happens here, cross-executor equivalence (same seed ⇒ bit-identical
// History) holds by construction: the drivers only translate transport
// events and cannot drift from each other.
//
// Event methods return the commands the driver must execute, in order.
// At most one "waiting" command (Evaluate, ObserveLoss) is in flight at a
// time; replies delivered while an evaluation is pending are queued and
// processed after EvalDone, mirroring the fednet aggregator's stash.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"sort"

	"fedprox/internal/comm"
	"fedprox/internal/frand"
	"fedprox/internal/model"
	"fedprox/internal/obs"
	"fedprox/internal/tensor"
)

// DeviceReg registers one device a worker hosts.
type DeviceReg struct {
	// ID is the global device index in [0, NumDevices).
	ID int
	// TrainSize is n_k, the device's local training-set size.
	TrainSize int
}

// CoordinatorOptions carries the driver-shape knobs of a Coordinator.
type CoordinatorOptions struct {
	// NumDevices is N, the total number of devices that must register
	// before Start.
	NumDevices int
	// WireEncoded forces every transfer through a codec link even when
	// Config.Codec is disabled: the raw codec is installed so Dispatch
	// and Evaluate carry encoded comm.Updates (the fednet wire always
	// moves Updates). Byte accounting keeps the legacy semantics.
	WireEncoded bool
	// LabelSuffix is appended to the History label (fednet: " [fednet]").
	LabelSuffix string
	// Stepped makes the synchronous protocol pause between rounds: after
	// a round (and its evaluation/checkpoint chain) completes, the
	// coordinator emits Pause{NextRound} instead of opening the next
	// round, and waits for Resume. A tiered driver uses this to re-base
	// an edge coordinator's global model on the parent's view before the
	// next window's broadcasts are encoded, keeping codec link chains
	// and environment streams alive across windows. Synchronous only.
	Stepped bool
	// Tier is 1 + the coordinator's depth in a tiered topology (1 =
	// root, 2 = its children, ...); 0 means untiered. Events emitted by
	// a tiered coordinator carry Tier-1 in obs.Event.Tier, so traces
	// distinguish root decisions (tier 0) from edge decisions (tier ≥ 1)
	// while untiered runs keep emitting the field's absent value (-1).
	Tier int
}

// Command is one instruction the coordinator asks its driver to execute.
type Command interface{ isCommand() }

// Dispatch instructs the driver to run one local solve on a device: ship
// the broadcast (Update on the wire, View in process), solve the
// subproblem at (Mu, LearningRate, BatchSize) for Epochs epochs with the
// batch order seeded by BatchSeed, and deliver the result as a Reply.
type Dispatch struct {
	// Seq is the dispatch sequence number (asynchronous modes: it names
	// the environment and latency streams; synchronous rounds: the
	// position within the round's selection).
	Seq int
	// Round is the communication round (sync) or model milestone (async)
	// at dispatch time.
	Round int
	// Version is the global model version of the broadcast snapshot.
	Version int
	// Device is the target device.
	Device int
	// Epochs is the device's epoch target for this dispatch.
	Epochs int
	// EpochBudget is the device-side compute budget in epochs (0 =
	// unlimited): the device truncates its solve to min(Epochs,
	// EpochBudget) and reports the realized work in Reply.EpochsDone.
	// Drawn from Config.DeviceBudget — the variable-local-work axis,
	// enforced by the device runtime, never re-planned by the server.
	EpochBudget int
	// Mu, LearningRate, BatchSize parameterize the local subproblem.
	Mu           float64
	LearningRate float64
	BatchSize    int
	// BatchSeed is the state of the device's mini-batch order stream.
	BatchSeed uint64
	// PrivacyTag seeds the device's privacy noise stream for this
	// dispatch: the round (synchronous) or the dispatch sequence
	// (asynchronous).
	PrivacyTag int
	// Update is the encoded broadcast (nil when the run has no wire
	// encoding — the plain in-process simulator).
	Update *comm.Update
	// View is the decoded broadcast view the device trains from;
	// in-process drivers solve against it directly.
	View []float64
	// DownBytes is the broadcast's wire size (the uncompressed parameter
	// bytes without a codec).
	DownBytes int64
}

func (Dispatch) isCommand() {}

// Evaluate instructs the driver to measure the global model: compute the
// network training loss and test accuracy at Params (or ship Update to
// distributed evaluators) and deliver an EvalResult via EvalDone.
type Evaluate struct {
	// Round is the milestone being recorded.
	Round int
	// Seq is the evaluation broadcast sequence (the shared eval link
	// chains on it).
	Seq int
	// Update is the encoded eval broadcast (nil without wire encoding).
	Update *comm.Update
	// Params is the decoded view the evaluation happens at.
	Params []float64
	// WireBytes is the encoded broadcast size (virtual-time drivers
	// charge the transfer to their clock).
	WireBytes int64
	// TrackDissimilarity asks the driver to also fill
	// EvalResult.GradVar/B.
	TrackDissimilarity bool
}

func (Evaluate) isCommand() {}

// ObserveLoss asks the driver for the global training loss at Params (the
// adaptive-μ controller observes it every round); answer via
// LossObserved.
type ObserveLoss struct{ Params []float64 }

func (ObserveLoss) isCommand() {}

// AdvanceClock instructs a virtual-time driver to charge Seconds to its
// clock (a synchronous round's critical path). Drivers without a clock
// ignore it.
type AdvanceClock struct{ Seconds float64 }

func (AdvanceClock) isCommand() {}

// Checkpoint reports that the coordinator persisted resumable state
// through round NextRound-1. Purely informational; the save already
// happened.
type Checkpoint struct{ NextRound int }

func (Checkpoint) isCommand() {}

// Pause reports that a stepped coordinator (CoordinatorOptions.Stepped)
// finished its work up to round NextRound and is waiting for Resume
// before opening it. The driver may read Params, re-base the model, and
// must call Resume to continue.
type Pause struct{ NextRound int }

func (Pause) isCommand() {}

// Done reports that the schedule is complete and History() is final.
type Done struct{}

func (Done) isCommand() {}

// Reply delivers one device's training result to the coordinator.
// Exactly one of Update (encoded uplink, wire runtimes) or Params (raw
// local solution, in-process runtimes without links) is set — both are
// produced by core.Device.HandleDispatch.
type Reply struct {
	Device int
	Update *comm.Update
	Params []float64
	// EpochsDone is the local epochs the device actually ran — less than
	// the dispatched target when a device-side budget truncated the
	// solve. Only read when Config.DeviceBudget is configured; the
	// accounting otherwise charges the dispatched epochs unchanged.
	EpochsDone int
	// Gamma is the device's achieved γ-inexactness (only read under
	// Config.TrackGamma).
	Gamma float64
	// Timed marks a virtual-time reply: Seq carries the transfer
	// sequence and Rel the reply's own latency — relative to the round's
	// broadcast for synchronous replies, to its dispatch for
	// asynchronous ones. The deadline and arrival-race policies judge
	// Rel; Lost reports a reply the network dropped in transit.
	Timed bool
	Seq   int
	Rel   float64
	Lost  bool
}

// EvalResult answers an Evaluate command.
type EvalResult struct {
	Loss float64
	Acc  float64
	// GradVar, B fill the dissimilarity columns when the Evaluate
	// command asked for them.
	GradVar float64
	B       float64
	// WireUplinkBytes/WireDownlinkBytes snapshot the transport's
	// measured traffic (fednet only; zero otherwise).
	WireUplinkBytes   int64
	WireDownlinkBytes int64
}

// StaleDelta is one device contribution to a staleness-damped fold: the
// model delta the device computed, its aggregation weight n_k, and the
// model version of the broadcast snapshot it trained from.
type StaleDelta struct {
	Delta   []float64
	Weight  float64
	Version int
}

// FoldStaleDeltas applies the coordinator's asynchronous update rule,
// FedBuff style: each delta is damped by its own staleness at fold time,
// alpha_k = alpha/(1+s)^p with s = version − Version, and the damped
// deltas combine under the run's sampling scheme,
//
//	w ← w + Σ n_k·alpha_k·Δ_k / Σ n_k   (uniform sampling)
//	w ← w + Σ alpha_k·Δ_k / |B|         (weighted sampling)
//
// With fresh replies (s = 0, alpha = 1, views = w) this reproduces the
// synchronous round update exactly; for a single-entry batch it is the
// delta form of the FedAsync fold. It reports whether the model advanced
// a version (false on an empty batch).
func FoldStaleDeltas(w []float64, batch []StaleDelta, version int, sampling SamplingScheme, alpha, p float64) bool {
	return foldStaleDeltas(w, batch, version, sampling, alpha, p, nil)
}

// foldStats accumulates staleness statistics across folds between
// evaluated points.
type foldStats struct {
	sum float64
	max float64
	n   int
}

// workStats accumulates realized-local-work statistics across the
// updates aggregated between evaluated points (only maintained when
// Config.DeviceBudget is set). Fields are exported because the struct
// rides the gob checkpoint envelope: a checkpoint between evaluations
// must carry the partially accumulated counters for exact resume
// equivalence.
type workStats struct {
	Done    int // epochs actually run
	Partial int // updates truncated below their dispatched target
	N       int
}

func (w *workStats) add(done, target int) {
	w.Done += done
	if done < target {
		w.Partial++
	}
	w.N++
}

func foldStaleDeltas(w []float64, batch []StaleDelta, version int, sampling SamplingScheme, alpha, p float64, st *foldStats) bool {
	num := tensor.GetVec(len(w))
	defer tensor.PutVec(num)
	tensor.Zero(num)
	den := 0.0
	for _, e := range batch {
		s := float64(version - e.Version)
		a := alpha / math.Pow(1+s, p)
		if st != nil {
			st.sum += s
			st.n++
			if s > st.max {
				st.max = s
			}
		}
		cw := 1.0
		if sampling != WeightedSimpleAvg {
			cw = e.Weight
		}
		den += cw
		for i, v := range e.Delta {
			num[i] += cw * a * v
		}
	}
	if den == 0 {
		return false
	}
	for i := range w {
		w[i] += num[i] / den
	}
	return true
}

// pendingDispatch is the coordinator's record of one outstanding
// Dispatch.
type pendingDispatch struct {
	device int
	seq    int // async dispatch sequence
	index  int // sync: position within the round's selection
	epochs int // the dispatched epoch target
	// expected is the work the device will actually perform:
	// min(epochs, EpochBudget) when a device-side budget rode the
	// dispatch, epochs otherwise. Charges (DispatchSent, WorkerLost
	// waste) and the realized-work clamp use it so a dispatch that never
	// returns is still billed what the device could have run, matching
	// the sync path's budget-clamped counterfactual.
	expected  int
	budget    int // the raw EpochBudget on the dispatch (0 = unlimited)
	version   int
	view      []float64 // the decoded broadcast view (uplink decode base)
	downBytes int64
	sentAt    float64 // clock at dispatch (async arrival accounting)
	charged   bool    // async: DispatchSent confirmed the transfer
}

// syncReply is one buffered synchronous-round result, held until the
// round completes so aggregation order stays the selection order.
type syncReply struct {
	wk      []float64
	nk      float64
	done    int // realized local epochs (== dispatched without a budget)
	budget  int // the dispatch's raw EpochBudget (0 = unlimited)
	gamma   float64
	upBytes int64
	seq     int
	rel     float64
	lost    bool
	timed   bool
}

// syncRound is the state of the in-flight synchronous round.
type syncRound struct {
	t           int
	mu          float64
	selected    []int
	epochs      []int
	straggler   []bool
	downBytes   []int64
	replies     []*syncReply
	outstanding int
}

// evalPending is a recorded-point skeleton awaiting its EvalResult.
type evalPending struct {
	round        int
	mu           float64
	gamma        float64
	participants int
	after        func() ([]Command, error)
}

// Coordinator is the transport-agnostic FedProx server core. Construct
// with NewCoordinator, register every device with RegisterWorker, then
// hand Start's commands to Drive with the Transport of the medium.
// Coordinator is not safe for concurrent use: drivers serialize event
// delivery. The device half of the protocol — downlink decode, local
// solve, privacy, uplink encode — lives in core.Device; the coordinator
// only encodes broadcasts and decodes replies.
type Coordinator struct {
	cfg   Config
	async AsyncConfig
	opts  CoordinatorOptions
	mdl   model.Model

	// legacy keeps the pre-codec byte accounting (no Config.Codec):
	// every selected device is charged a full-model download and its
	// epochs, dropped stragglers included.
	legacy     bool
	paramBytes int64

	n           int
	sizes       []float64
	weights     []float64
	registered  []bool
	live        []bool
	liveDevices int

	selRoot   *frand.Source
	stragRoot *frand.Source
	batchRoot *frand.Source
	initRoot  *frand.Source

	w     []float64
	links *commLinks
	muc   *muController

	// dev is the in-process device runtime bound for checkpointing: its
	// codec link state (downlink chains, uplink rounding streams and
	// residuals, the eval receive chain) is part of the resumable state.
	// Wire deployments have no access to device state and reject
	// checkpointing instead.
	dev *Device

	hist  *History
	cost  Cost
	work  workStats
	now   float64  // virtual clock mirror; NaN until the driver Ticks
	trace obs.Sink // Config.Trace; nil means tracing off
	tier  int      // obs.Event.Tier stamp: opts.Tier-1 (-1 = untiered)

	evalSeq int

	started  bool
	finished bool

	pending map[int]*pendingDispatch

	// synchronous state
	t         int
	round     *syncRound
	outcome   *roundOutcome
	ckptEvery int
	paused    bool // stepped: a Pause is outstanding, awaiting Resume

	// asynchronous state
	isAsync       bool
	version       int
	folded        int
	dispatchSeq   int
	maxDispatches int
	target        int
	flushSize     int
	roundSize     int
	buffer        []StaleDelta
	idle          *idleSet
	windowBytes   int64
	stats         foldStats

	// wait states
	evalWait *evalPending
	queued   []Reply
}

// NewCoordinator builds a coordinator for one run of cfg on mdl.
func NewCoordinator(mdl model.Model, cfg Config, opts CoordinatorOptions) (*Coordinator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.NumDevices <= 0 {
		return nil, errors.New("core: coordinator needs a positive NumDevices")
	}
	if opts.Stepped && cfg.Async.Enabled() {
		return nil, errors.New("core: stepped execution applies only to synchronous rounds")
	}
	if opts.Tier < 0 {
		return nil, fmt.Errorf("core: Tier must be non-negative, got %d", opts.Tier)
	}
	cfg = cfg.WithDefaults()
	root := frand.New(cfg.Seed)
	// Nominal per-transfer cost of an uncoded model: one machine word
	// per coordinate at the deployment's precision — an f32 deployment
	// ships 4-byte coordinates even before any codec.
	wordBytes := 8
	if cfg.Precision == tensor.F32 {
		wordBytes = 4
	}
	c := &Coordinator{
		cfg:        cfg,
		opts:       opts,
		mdl:        mdl,
		legacy:     !cfg.Codec.Enabled(),
		paramBytes: int64(mdl.NumParams() * wordBytes),
		n:          opts.NumDevices,
		sizes:      make([]float64, opts.NumDevices),
		registered: make([]bool, opts.NumDevices),
		live:       make([]bool, opts.NumDevices),
		selRoot:    root.Split("selection"),
		stragRoot:  root.Split("stragglers"),
		batchRoot:  root.Split("batches"),
		initRoot:   root.Split("init"),
		hist:       &History{Label: Label(cfg) + opts.LabelSuffix},
		now:        math.NaN(),
		trace:      cfg.Trace,
		tier:       opts.Tier - 1,
		pending:    make(map[int]*pendingDispatch),
		isAsync:    cfg.Async.Enabled(),
	}
	return c, nil
}

// emit sends one event to the run's trace sink, stamped with the
// coordinator's clock mirror (virtual seconds, or NaN when the run has
// no clock). The nil-sink fast path keeps the untraced hot path at one
// predictable branch.
func (c *Coordinator) emit(e obs.Event) {
	if c.trace == nil {
		return
	}
	e.Time = c.now
	e.Tier = c.tier
	c.trace.Emit(e)
}

// CommSpecs returns the resolved per-direction codec specs of this run —
// what a wire driver must install at the far endpoint. Under WireEncoded
// a disabled codec resolves to "raw".
func (c *Coordinator) CommSpecs() (down, up comm.Spec) {
	down, up = c.cfg.CommSpecs()
	if !up.Enabled() && c.opts.WireEncoded {
		raw := Config{Codec: comm.Spec{Name: "raw"}, Seed: c.cfg.Seed, Precision: c.cfg.Precision}
		down, up = raw.CommSpecs()
	}
	return down, up
}

// BindDevice attaches the in-process device runtime so checkpoints also
// capture the device half of the codec link state. In-process drivers
// call it before Start (the checkpoint load happens there).
func (c *Coordinator) BindDevice(d *Device) { c.dev = d }

// History returns the run's trajectory (final once Done was emitted).
func (c *Coordinator) History() *History { return c.hist }

// Params returns a copy of the current global model parameters. A tiered
// driver reads an edge coordinator's fold here while it is paused, to
// present it upstream as that edge's device reply.
func (c *Coordinator) Params() []float64 {
	out := make([]float64, len(c.w))
	copy(out, c.w)
	return out
}

// Resume continues a stepped coordinator past an outstanding Pause,
// optionally re-basing the global model on view first (nil keeps the
// current parameters). The re-base happens before the next round's
// broadcasts are encoded, so codec link chains stay consistent; this is
// how a tiered driver folds the parent's aggregate back into an edge.
func (c *Coordinator) Resume(view []float64) ([]Command, error) {
	if !c.paused {
		return nil, errors.New("core: Resume without an outstanding Pause")
	}
	if view != nil {
		if len(view) != len(c.w) {
			return nil, fmt.Errorf("core: Resume view has %d params, model has %d", len(view), len(c.w))
		}
		copy(c.w, view)
	}
	c.paused = false
	return c.beginRound()
}

// InFlight returns the number of outstanding dispatches.
func (c *Coordinator) InFlight() int { return len(c.pending) }

// Tick synchronizes the coordinator's virtual clock with the driver's.
// Virtual-time drivers call it after every clock movement; drivers
// without a clock never do, and every Point records VirtualSeconds NaN.
func (c *Coordinator) Tick(now float64) { c.now = now }

// timed reports whether a virtual-time driver is attached.
func (c *Coordinator) timed() bool { return !math.IsNaN(c.now) }

// EvalResyncState returns the shared evaluation link's current chain
// base (the last decoded eval broadcast), or nil when the eval codec is
// chain-free. A wire driver re-admitting a worker mid-run ships it so
// the rejoining endpoint decodes the next eval broadcast in lockstep.
func (c *Coordinator) EvalResyncState() []float64 {
	if c.links == nil {
		return nil
	}
	return c.links.evalPrev()
}

// RegisterWorker registers the devices one worker hosts. Before Start it
// accumulates the roster (every device in [0, NumDevices) must register
// exactly once). After Start — asynchronous runs only — it re-admits
// previously evicted devices: their codec link state is reset on both
// ends (the driver ships fresh state to the worker) and they rejoin the
// idle pool. A validation error after Start leaves the run untouched, so
// wire drivers can refuse the offending worker and continue.
func (c *Coordinator) RegisterWorker(devices []DeviceReg) ([]Command, error) {
	if !c.started {
		for _, d := range devices {
			if d.ID < 0 || d.ID >= c.n {
				return nil, fmt.Errorf("core: device ID %d outside [0,%d)", d.ID, c.n)
			}
			if c.registered[d.ID] {
				return nil, fmt.Errorf("core: device %d registered twice", d.ID)
			}
			if d.TrainSize <= 0 {
				return nil, fmt.Errorf("core: device %d has no training data", d.ID)
			}
			c.registered[d.ID] = true
			c.live[d.ID] = true
			c.liveDevices++
			c.sizes[d.ID] = float64(d.TrainSize)
		}
		return nil, nil
	}
	if !c.isAsync {
		return nil, errors.New("core: synchronous runs cannot re-admit workers")
	}
	// Validate everything before mutating: a rejected re-registration
	// must not leave half a worker admitted.
	seen := make(map[int]bool, len(devices))
	for _, d := range devices {
		if d.ID < 0 || d.ID >= c.n || !c.registered[d.ID] {
			return nil, fmt.Errorf("core: re-admission of unknown device %d", d.ID)
		}
		if c.live[d.ID] {
			return nil, fmt.Errorf("core: device %d is still live", d.ID)
		}
		if seen[d.ID] {
			// A double entry would inflate liveDevices past reality and
			// defeat the lost-every-worker detection forever.
			return nil, fmt.Errorf("core: device %d re-registered twice in one hello", d.ID)
		}
		seen[d.ID] = true
		if float64(d.TrainSize) != c.sizes[d.ID] {
			return nil, fmt.Errorf("core: device %d re-registered with %d training examples, had %g", d.ID, d.TrainSize, c.sizes[d.ID])
		}
	}
	for _, d := range devices {
		if c.links != nil {
			c.links.reset(d.ID)
		}
		c.live[d.ID] = true
		c.liveDevices++
		c.idle.add(d.ID)
		c.emit(obs.Event{Kind: obs.KindWorkerReadmit, Device: d.ID})
	}
	if c.evalWait != nil {
		return nil, nil
	}
	return c.fillAsync()
}

// Start begins the run: initializes the global model from the seed's
// init stream, loads any checkpoint, and returns the first commands
// (round 0's evaluation, or the resumed round's dispatches).
func (c *Coordinator) Start() ([]Command, error) {
	if c.started {
		return nil, errors.New("core: coordinator already started")
	}
	for id, ok := range c.registered {
		if !ok {
			return nil, fmt.Errorf("core: device %d never registered", id)
		}
	}
	c.started = true
	c.emit(obs.Event{Kind: obs.KindRunStart, Label: c.hist.Label, N: c.n})

	total := 0.0
	for _, s := range c.sizes {
		total += s
	}
	c.weights = make([]float64, c.n)
	for i, s := range c.sizes {
		c.weights[i] = s / total
	}

	c.w = c.mdl.InitParams(c.initRoot.Split("params"))

	if c.cfg.Codec.Enabled() || c.opts.WireEncoded {
		down, up := c.CommSpecs()
		links, err := newCommLinks(down, up)
		if err != nil {
			return nil, err
		}
		c.links = links
	}
	if c.cfg.AdaptiveMu {
		c.muc = newMuController(c.cfg.Mu, c.cfg.MuStep, c.cfg.MuPatience)
	}

	if c.isAsync {
		return c.startAsync()
	}
	return c.startSync()
}

// ---------------------------------------------------------------------
// Synchronous protocol
// ---------------------------------------------------------------------

func (c *Coordinator) startSync() ([]Command, error) {
	startRound := 0
	if c.cfg.Checkpointer != nil {
		next, saved, savedHist, state, err := c.cfg.Checkpointer.Load()
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint load: %w", err)
		}
		if saved != nil {
			if len(saved) != len(c.w) {
				return nil, fmt.Errorf("core: checkpoint has %d params, model has %d", len(saved), len(c.w))
			}
			copy(c.w, saved)
			startRound = next
			if savedHist != nil {
				c.hist.Points = append(c.hist.Points, savedHist.Points...)
				// Checkpointed histories are always synchronous and
				// clock-free (Validate rejects async and vtime runs with a
				// checkpointer); checkpoints written before the staleness
				// and virtual-time columns existed decode them as 0, which
				// would masquerade as tracked values.
				for i := range c.hist.Points {
					c.hist.Points[i].MeanStaleness = math.NaN()
					c.hist.Points[i].MaxStaleness = math.NaN()
					c.hist.Points[i].VirtualSeconds = math.NaN()
					if c.cfg.DeviceBudget == nil {
						// Same defence for the work columns — but only
						// when untracked: a budget run's checkpoints
						// carry real values.
						c.hist.Points[i].MeanEpochsDone = math.NaN()
						c.hist.Points[i].PartialFraction = math.NaN()
					}
				}
			}
			if err := c.restoreState(state); err != nil {
				return nil, err
			}
		}
	}
	c.ckptEvery = c.cfg.CheckpointEvery
	if c.ckptEvery <= 0 {
		c.ckptEvery = c.cfg.EvalEvery
	}
	c.t = startRound
	if startRound == 0 {
		return c.beginEval(0, c.cfg.Mu, math.NaN(), 0, c.nextRound)
	}
	return c.nextRound()
}

// nextRound opens round c.t — or, on a stepped coordinator with rounds
// remaining, pauses and waits for Resume to open it.
func (c *Coordinator) nextRound() ([]Command, error) {
	if c.opts.Stepped && c.t < c.cfg.Rounds {
		c.paused = true
		return []Command{Pause{NextRound: c.t}}, nil
	}
	return c.beginRound()
}

// selectDevices and stragglerPlan share the Env draw implementations
// (env.go), so the coordinator and Env-driven baselines see identical
// environments under the same seed.
func (c *Coordinator) selectDevices(round int) []int {
	return drawSelection(c.cfg, c.selRoot.SplitIndex(round), c.weights, c.n)
}

func (c *Coordinator) stragglerPlan(round int, selected []int) (epochs []int, straggler []bool) {
	return drawStragglerPlan(c.cfg, c.stragRoot.SplitIndex(round), round, selected)
}

// deviceBudget draws the device-side compute budget for one dispatch:
// Config.DeviceBudget's allowance for (tag, device), clamped to
// [1, epochs] — a contacted device always completes at least one epoch
// (a device that cannot reply at all is the network/deadline policies'
// job, not the work axis's). Zero without a budget model, the Dispatch
// field's "unlimited" sentinel. tag is the round for synchronous
// dispatches and the dispatch sequence for asynchronous ones, so the
// draw is deterministic and identical across executors.
func (c *Coordinator) deviceBudget(tag, device, epochs int) int {
	if c.cfg.DeviceBudget == nil {
		return 0
	}
	b := c.cfg.DeviceBudget.EpochBudget(tag, device, epochs)
	if b < 1 {
		b = 1
	}
	if b > epochs {
		b = epochs
	}
	return b
}

// expectedEpochs resolves the work a device will perform for a
// dispatch: the budget when one is set (deviceBudget already clamps it
// to [1, epochs]), the dispatched target otherwise. The wire-facing
// device runtime re-clamps with min() because its inputs are untrusted.
func expectedEpochs(budget, epochs int) int {
	if budget > 0 {
		return budget
	}
	return epochs
}

// realizedEpochs resolves the epochs a reply's device actually ran.
// Without a budget model the dispatched target is authoritative (legacy
// replies need not report EpochsDone); with one, the device's report is,
// clamped to [0, dispatched].
func (c *Coordinator) realizedEpochs(dispatched, reported int) int {
	if c.cfg.DeviceBudget == nil {
		return dispatched
	}
	if reported < 0 {
		return 0
	}
	if reported > dispatched {
		return dispatched
	}
	return reported
}

// beginRound opens round c.t: selects devices, plans stragglers, encodes
// broadcasts (advancing per-device link state sequentially, exactly as
// every executor always has), and emits the round's Dispatches. A round
// whose every device is policy-dropped completes immediately.
func (c *Coordinator) beginRound() ([]Command, error) {
	if c.t >= c.cfg.Rounds {
		c.finished = true
		c.emit(obs.Event{Kind: obs.KindRunDone})
		return []Command{Done{}}, nil
	}
	t := c.t
	mu := c.cfg.Mu
	if c.muc != nil {
		mu = c.muc.Mu()
	}
	selected := c.selectDevices(t)
	epochs, straggler := c.stragglerPlan(t, selected)
	r := &syncRound{
		t:         t,
		mu:        mu,
		selected:  selected,
		epochs:    epochs,
		straggler: straggler,
		downBytes: make([]int64, len(selected)),
		replies:   make([]*syncReply, len(selected)),
	}
	c.round = r
	c.emit(obs.Event{Kind: obs.KindRoundOpen, Round: t, N: len(selected)})
	var cmds []Command
	for i, k := range selected {
		if c.cfg.Straggler == DropStragglers && straggler[i] {
			// Never contacted; accounted at round completion.
			c.emit(obs.Event{Kind: obs.KindDrop, Round: t, Device: k, Disposition: DropPolicy.String()})
			continue
		}
		view := c.w
		var u *comm.Update
		db := c.paramBytes
		if c.links != nil {
			var err error
			u, view, db, err = c.links.broadcast(k, c.w)
			if err != nil {
				return nil, err
			}
		}
		r.downBytes[i] = db
		budget := c.deviceBudget(t, k, epochs[i])
		c.pending[k] = &pendingDispatch{
			device:    k,
			index:     i,
			epochs:    epochs[i],
			expected:  expectedEpochs(budget, epochs[i]),
			budget:    budget,
			version:   t,
			view:      view,
			downBytes: db,
		}
		r.outstanding++
		c.emit(obs.Event{
			Kind: obs.KindDispatch, Round: t, Seq: i, Device: k, Version: t,
			Epochs: epochs[i], Budget: budget, BytesDown: db,
		})
		cmds = append(cmds, Dispatch{
			Seq:          i,
			Round:        t,
			Version:      t,
			Device:       k,
			Epochs:       epochs[i],
			EpochBudget:  budget,
			Mu:           mu,
			LearningRate: c.cfg.LearningRate,
			BatchSize:    c.cfg.BatchSize,
			BatchSeed:    c.batchRoot.SplitIndex(t).SplitIndex(k).State(),
			PrivacyTag:   t,
			Update:       u,
			View:         view,
			DownBytes:    db,
		})
	}
	if r.outstanding == 0 {
		return c.completeRound()
	}
	return cmds, nil
}

// cutSyncRound applies the clock-native straggler policies to a timed
// round: replies race in (arrival, seq) order, the deadline and
// byte-budget cut the tail, the round's critical path becomes its
// duration, and every transmitted reply lands in the Arrivals trace.
func (c *Coordinator) cutSyncRound(r *syncRound) (duration float64, drop []DropReason) {
	start := c.now
	type leg struct {
		i     int
		seq   int
		rel   float64
		bytes int64
		lost  bool
	}
	legs := make([]leg, 0, len(r.selected))
	drop = make([]DropReason, len(r.selected))
	for i := range r.selected {
		rep := r.replies[i]
		if rep == nil {
			drop[i] = DropPolicy
			continue
		}
		legs = append(legs, leg{i: i, seq: rep.seq, rel: rep.rel, bytes: r.downBytes[i] + rep.upBytes, lost: rep.lost})
	}
	sort.Slice(legs, func(a, b int) bool {
		if legs[a].rel != legs[b].rel {
			return legs[a].rel < legs[b].rel
		}
		return legs[a].seq < legs[b].seq
	})
	deadline := c.cfg.VTime.DeadlineSeconds
	var cum int64
	for _, l := range legs {
		// The window budget is consumed in arrival order by every
		// transfer — including replies later lost or late; their bytes
		// moved on the wire too.
		cum += l.bytes
		reason := ArrivalFolded
		switch {
		case l.lost:
			reason = DropLost
		case deadline > 0 && l.rel > deadline:
			reason = DropDeadline
		case c.cfg.VTime.RoundBytes > 0 && cum > c.cfg.VTime.RoundBytes:
			reason = DropBudget
		}
		// Server occupancy: an accepted reply holds the round until it
		// arrives; a late reply holds it until the deadline closes the
		// round; a lost reply until its expected arrival (the server's
		// detection point) or the deadline, whichever is earlier. A
		// budget-dropped reply holds nothing — budget drops are the
		// arrival-order tail, so the budget was spent (and the round
		// closed) before it arrived.
		occ := l.rel
		switch {
		case reason == DropBudget:
			occ = 0
		case deadline > 0 && (reason == DropDeadline || (reason == DropLost && deadline < occ)):
			occ = deadline
		}
		if occ > duration {
			duration = occ
		}
		drop[l.i] = reason
		stale := 0
		if reason != ArrivalFolded {
			stale = -1
		}
		c.hist.Arrivals = append(c.hist.Arrivals, Arrival{
			Device:      r.selected[l.i],
			Seq:         l.seq,
			Sent:        start,
			Arrived:     start + l.rel,
			Staleness:   stale,
			Drop:        reason,
			EpochBudget: r.replies[l.i].budget,
			EpochsDone:  r.replies[l.i].done,
		})
	}
	return duration, drop
}

// completeRound closes the in-flight round: applies the virtual-time cut
// when the replies are timed, performs the resource accounting, folds
// the surviving updates, and walks the post-round sequence (adaptive-μ
// observation, evaluation, checkpointing, next round).
func (c *Coordinator) completeRound() ([]Command, error) {
	r := c.round
	c.round = nil

	var pre []Command
	var vdrop []DropReason
	roundSecs := math.NaN()
	timedRound := false
	for _, rep := range r.replies {
		if rep != nil && rep.timed {
			timedRound = true
			break
		}
	}
	if timedRound {
		duration, drop := c.cutSyncRound(r)
		vdrop = drop
		roundSecs = duration
		pre = append(pre, AdvanceClock{Seconds: duration})
	}

	dropped := func(i int) bool { return c.cfg.Straggler == DropStragglers && r.straggler[i] }
	vDropped := func(i int) bool {
		return vdrop != nil && r.replies[i] != nil && vdrop[i] != ArrivalFolded
	}

	// Resource accounting. Under the legacy (no-codec) model every
	// selected device downloads wᵗ and performs its epoch budget (real
	// devices can't know in advance they'll be dropped) and dropped
	// stragglers' epochs are wasted work. With a codec the link is
	// explicit: only contacted devices move bytes or spend epochs.
	// Contacted devices are charged the epochs they actually ran (the
	// reply's realized work — less than the dispatched target when a
	// device-side budget truncated the solve).
	for i := range r.selected {
		if dropped(i) {
			if c.legacy {
				// The counterfactual charge follows the realized-work
				// rule: a never-contacted device modeled as running
				// anyway would still have stopped at its compute budget.
				ep := expectedEpochs(c.deviceBudget(r.t, r.selected[i], r.epochs[i]), r.epochs[i])
				c.cost.DownlinkBytes += c.paramBytes
				c.cost.DeviceEpochs += ep
				c.cost.WastedEpochs += ep
			}
			continue
		}
		c.cost.DownlinkBytes += r.downBytes[i]
		ep := r.epochs[i]
		if rep := r.replies[i]; rep != nil {
			ep = rep.done
		}
		c.cost.DeviceEpochs += ep
	}

	var params [][]float64
	var nks []float64
	gammaSum, gammaN := 0.0, 0
	for i, rep := range r.replies {
		if rep == nil {
			continue
		}
		if c.trace != nil {
			disp, stale := ArrivalFolded, 0
			if vDropped(i) {
				disp, stale = vdrop[i], -1
			}
			rel := math.NaN()
			if rep.timed {
				rel = rep.rel
			}
			c.emit(obs.Event{
				Kind: obs.KindReply, Seq: i, Device: r.selected[i], Version: r.t,
				Staleness: stale, EpochsDone: rep.done, BytesUp: rep.upBytes,
				BytesDown: r.downBytes[i], Seconds: rel, Disposition: disp.String(),
			})
		}
		if vDropped(i) {
			// Replies cut by a virtual-time policy keep their transfer
			// charges — the bytes moved — except a lost reply's uplink,
			// which never reached the server.
			c.cost.WastedEpochs += rep.done
			if vdrop[i] != DropLost {
				c.cost.UplinkBytes += rep.upBytes
			}
			continue
		}
		c.cost.UplinkBytes += rep.upBytes
		params = append(params, rep.wk)
		nks = append(nks, c.foldWeight(rep.nk, rep.done))
		if c.cfg.DeviceBudget != nil {
			c.work.add(rep.done, r.epochs[i])
		}
		if c.cfg.TrackGamma {
			gammaSum += rep.gamma
			gammaN++
		}
	}
	gamma := math.NaN()
	if gammaN > 0 {
		gamma = gammaSum / float64(gammaN)
	}
	if len(params) > 0 {
		aggregate(c.w, params, nks, c.cfg.Sampling)
		c.emit(obs.Event{Kind: obs.KindFold, Round: r.t, Version: r.t + 1, N: len(params)})
	}
	c.emit(obs.Event{Kind: obs.KindRoundClose, Round: r.t, N: len(params), Seconds: roundSecs})

	outcome := &roundOutcome{t: r.t, mu: r.mu, gamma: gamma, participants: len(params)}
	if c.muc != nil {
		// The adaptive-μ controller observes the loss every round; other
		// configurations only pay for evaluation on recorded rounds.
		c.outcome = outcome
		return append(pre, ObserveLoss{Params: c.w}), nil
	}
	more, err := c.afterObserve(outcome)
	return append(pre, more...), err
}

// roundOutcome carries a completed round's recording inputs across the
// adaptive-μ wait state.
type roundOutcome struct {
	t            int
	mu           float64
	gamma        float64
	participants int
}

// LossObserved answers an ObserveLoss command with the global training
// loss at the requested parameters.
func (c *Coordinator) LossObserved(loss float64) ([]Command, error) {
	if c.muc == nil || c.outcome == nil {
		return nil, errors.New("core: unexpected LossObserved")
	}
	c.muc.Observe(loss)
	out := c.outcome
	c.outcome = nil
	return c.afterObserve(out)
}

// afterObserve continues a completed round past the adaptive-μ
// observation: evaluation if the round is recorded, then checkpointing
// and the next round.
func (c *Coordinator) afterObserve(out *roundOutcome) ([]Command, error) {
	t := out.t
	needEval := (t+1)%c.cfg.EvalEvery == 0 || t == c.cfg.Rounds-1
	if needEval {
		return c.beginEval(t+1, out.mu, out.gamma, out.participants, func() ([]Command, error) {
			return c.afterRecord(t)
		})
	}
	return c.afterRecord(t)
}

// afterRecord finishes round t: persists a checkpoint when due and opens
// the next round.
func (c *Coordinator) afterRecord(t int) ([]Command, error) {
	var pre []Command
	if c.cfg.Checkpointer != nil && ((t+1)%c.ckptEvery == 0 || t == c.cfg.Rounds-1) {
		state, err := c.snapshotState()
		if err != nil {
			return nil, err
		}
		if err := c.cfg.Checkpointer.Save(t+1, c.w, c.hist, state); err != nil {
			return nil, fmt.Errorf("core: checkpoint save: %w", err)
		}
		c.emit(obs.Event{Kind: obs.KindCheckpoint, Round: t + 1})
		pre = append(pre, Checkpoint{NextRound: t + 1})
	}
	c.t = t + 1
	more, err := c.nextRound()
	return append(pre, more...), err
}

// coordinatorState is the gob envelope of the opaque checkpoint bytes:
// everything resumable beyond the parameters and the history.
type coordinatorState struct {
	// Cost is the cumulative resource accounting at save time, so a
	// resumed run's Points continue the same counters instead of
	// restarting at zero.
	Cost Cost
	// Links is the serialized codec link state (nil without codecs).
	Links []byte
	// Device is the serialized device-side link state of the bound
	// in-process device runtime — downlink chains, uplink rounding
	// streams and error-feedback residuals, the eval receive chain (nil
	// without codecs). Since the device runtime owns the uplink encoder
	// state, a codec run cannot resume bit-identically without it.
	Device []byte
	// AdaptiveMu is the adaptive-μ controller's state (nil unless
	// Config.AdaptiveMu), so a resumed adaptive run continues the
	// controller's streak instead of restarting at Config.Mu.
	AdaptiveMu *muState
	// Work is the realized-work accumulator since the last evaluated
	// point (Config.DeviceBudget runs). Without it a checkpoint whose
	// cadence is misaligned with EvalEvery would resume with the next
	// Point's MeanEpochsDone/PartialFraction covering only post-resume
	// rounds.
	Work workStats
}

// snapshotState serializes the coordinator's resumable extras.
func (c *Coordinator) snapshotState() ([]byte, error) {
	st := coordinatorState{Cost: c.cost, Work: c.work}
	if c.muc != nil {
		ms := c.muc.snapshot()
		st.AdaptiveMu = &ms
	}
	if c.links != nil {
		var err error
		if st.Links, err = c.links.snapshot(); err != nil {
			return nil, fmt.Errorf("core: checkpoint link state: %w", err)
		}
	}
	if c.dev != nil {
		var err error
		if st.Device, err = c.dev.snapshotLinks(); err != nil {
			return nil, fmt.Errorf("core: checkpoint device link state: %w", err)
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("core: checkpoint state: %w", err)
	}
	return buf.Bytes(), nil
}

// restoreState replays a snapshotState blob. An empty blob (a checkpoint
// written before coordinator state existed) is tolerated for plain runs
// — their cost counters restart at zero — but refused for codec runs,
// whose rounding streams and residuals cannot be reconstructed.
func (c *Coordinator) restoreState(state []byte) error {
	if len(state) == 0 {
		if c.links != nil {
			return errors.New("core: checkpoint carries no codec link state (saved by an older run?)")
		}
		return nil
	}
	var st coordinatorState
	if err := gob.NewDecoder(bytes.NewReader(state)).Decode(&st); err != nil {
		return fmt.Errorf("core: checkpoint state: %w", err)
	}
	c.cost = st.Cost
	c.cost.WireUplinkBytes, c.cost.WireDownlinkBytes = 0, 0
	c.work = st.Work
	if c.muc != nil && st.AdaptiveMu != nil {
		c.muc.restore(*st.AdaptiveMu)
	}
	if c.links != nil {
		if len(st.Links) == 0 {
			return errors.New("core: checkpoint carries no codec link state (saved by an older run?)")
		}
		if err := c.links.restore(st.Links); err != nil {
			return fmt.Errorf("core: checkpoint link state: %w", err)
		}
	}
	if c.dev != nil && c.dev.links != nil {
		if len(st.Device) == 0 {
			return errors.New("core: checkpoint carries no device link state (saved by an older run?)")
		}
		if err := c.dev.restoreLinks(st.Device); err != nil {
			return fmt.Errorf("core: checkpoint device link state: %w", err)
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Asynchronous protocol
// ---------------------------------------------------------------------

func (c *Coordinator) startAsync() ([]Command, error) {
	c.async = c.cfg.Async.WithDefaults(c.cfg.ClientsPerRound)
	c.flushSize, c.roundSize = 1, c.cfg.ClientsPerRound
	if c.async.Mode == Buffered {
		c.flushSize = c.async.BufferK
		c.roundSize = c.async.BufferK
	}
	c.target = c.cfg.Rounds * c.roundSize
	// Safety valve: virtual-time policies that drop every reply (a byte
	// budget below one round-trip, a deadline below the fastest latency)
	// would otherwise dispatch forever.
	c.maxDispatches = 64*c.target + 1024
	c.idle = newIdleSet(c.n)
	c.idle.fill()
	return c.beginEval(0, c.cfg.Mu, math.NaN(), 0, c.fillAsync)
}

// asyncDispatch ships one dispatch to an idle device chosen by the
// environment streams (uniform or size-weighted over the sorted idle
// set). Selection, straggler budgets, and batch orders are split per
// dispatch sequence — the same derivation every async executor has
// always used. The uniform mode draws rank-then-select on the idle
// set's Fenwick tree, O(log N) per dispatch, consuming exactly the draw
// the old sort-the-idle-slice implementation consumed; the weighted
// mode still walks the ordered idle population because its float prefix
// scan is not tree-decomposable without perturbing the draw.
func (c *Coordinator) asyncDispatch() (Dispatch, error) {
	rng := c.selRoot.SplitIndex(c.dispatchSeq)
	var id int
	if c.cfg.Sampling == WeightedSimpleAvg {
		ids := make([]int, 0, c.idle.len())
		ws := make([]float64, 0, c.idle.len())
		c.idle.ascending(func(d int) {
			ids = append(ids, d)
			ws = append(ws, c.weights[d])
		})
		id = ids[rng.WeightedChoice(ws, 1)[0]]
	} else {
		id = c.idle.kth(rng.Intn(c.idle.len()))
	}
	epochs := c.cfg.LocalEpochs
	if c.cfg.StragglerFraction > 0 {
		srng := c.stragRoot.SplitIndex(c.dispatchSeq)
		if srng.Bernoulli(c.cfg.StragglerFraction) {
			epochs = srng.IntRange(1, c.cfg.LocalEpochs)
		}
	}
	batchSeed := c.batchRoot.SplitIndex(c.dispatchSeq).SplitIndex(id).State()
	seq := c.dispatchSeq
	c.dispatchSeq++
	budget := c.deviceBudget(seq, id, epochs)

	view := c.w
	var u *comm.Update
	db := c.paramBytes
	if c.links != nil {
		var err error
		if u, view, db, err = c.links.broadcast(id, c.w); err != nil {
			return Dispatch{}, err
		}
	} else {
		// Freeze the broadcast at dispatch time: the solve may run
		// concurrently with later model folds, so the device must see the
		// version it was dispatched, not a racing c.w. Pooled — the copy
		// is recycled when the reply resolves (or the worker is lost).
		view = tensor.GetVec(len(c.w))
		copy(view, c.w)
	}
	c.idle.remove(id)
	c.pending[id] = &pendingDispatch{
		device:    id,
		seq:       seq,
		epochs:    epochs,
		expected:  expectedEpochs(budget, epochs),
		budget:    budget,
		version:   c.version,
		view:      view,
		downBytes: db,
		sentAt:    c.now,
	}
	c.emit(obs.Event{
		Kind: obs.KindDispatch, Round: c.folded / c.roundSize, Seq: seq, Device: id,
		Version: c.version, Epochs: epochs, Budget: budget, BytesDown: db,
	})
	return Dispatch{
		Seq:          seq,
		Round:        c.folded / c.roundSize,
		Version:      c.version,
		Device:       id,
		Epochs:       epochs,
		EpochBudget:  budget,
		Mu:           c.cfg.Mu,
		LearningRate: c.cfg.LearningRate,
		BatchSize:    c.cfg.BatchSize,
		BatchSeed:    batchSeed,
		PrivacyTag:   seq,
		Update:       u,
		View:         view,
		DownBytes:    db,
	}, nil
}

// fillAsync keeps MaxInFlight devices busy while the schedule has work
// left, and emits Done once every fold landed and the last reply
// drained.
func (c *Coordinator) fillAsync() ([]Command, error) {
	var cmds []Command
	for c.folded+len(c.pending) < c.target && len(c.pending) < c.async.MaxInFlight && c.idle.len() > 0 {
		if c.cfg.VTime.Enabled() && c.dispatchSeq >= c.maxDispatches {
			return nil, fmt.Errorf("core: async schedule made no progress after %d dispatches — the deadline/byte-budget policy drops every reply", c.dispatchSeq)
		}
		d, err := c.asyncDispatch()
		if err != nil {
			return nil, err
		}
		cmds = append(cmds, d)
	}
	if c.folded >= c.target && len(c.pending) == 0 && !c.finished {
		c.finished = true
		c.emit(obs.Event{Kind: obs.KindRunDone})
		cmds = append(cmds, Done{})
	}
	return cmds, nil
}

// DispatchSent confirms that an asynchronous Dispatch actually left the
// coordinator: only then are its downlink bytes and device epochs
// charged, so a dispatch whose send failed (dead worker) is billed as
// neither traffic nor compute. Drivers call it right after shipping the
// request — in-process drivers, where shipping cannot fail,
// immediately. Synchronous rounds account at round completion instead
// and never call it.
func (c *Coordinator) DispatchSent(device int) {
	in, ok := c.pending[device]
	if !ok || in.charged {
		return
	}
	in.charged = true
	c.cost.DownlinkBytes += in.downBytes
	c.cost.DeviceEpochs += in.expected
}

// handleAsyncReply folds (or discards) one arrived reply: the device's
// model delta, damped by its staleness alpha/(1+s)^p, enters the
// aggregation buffer; the model advances one version per flush; every
// roundSize folds is a milestone, evaluated on the sync cadence.
func (c *Coordinator) handleAsyncReply(r Reply) ([]Command, error) {
	in, ok := c.pending[r.Device]
	if !ok {
		return nil, nil // an evicted worker's late reply: drop
	}
	delete(c.pending, r.Device)
	if c.live[r.Device] {
		c.idle.add(r.Device)
	}
	wk, upWire, err := c.decodeReply(in, r)
	if err != nil {
		return nil, err
	}
	// DispatchSent charged the expected (budget-clamped) work; the
	// device's reply reports the realized work — adjust the charge on
	// any residual difference.
	done := c.realizedEpochs(in.expected, r.EpochsDone)
	if in.charged && done != in.expected {
		c.cost.DeviceEpochs += done - in.expected
	}

	// The deadline judges the reply's own network+compute latency, which
	// the driver stamps in Rel. The clock delta c.now-in.sentAt is NOT
	// equivalent: an evaluation charge can Advance the engine past a
	// scheduled arrival, which then fires "at the present" — inflating
	// the observed delta and dropping a reply that was in time.
	rel := math.NaN()
	if r.Timed {
		rel = r.Rel
	}
	reason := ArrivalFolded
	staleness := c.version - in.version
	switch {
	case r.Lost:
		reason = DropLost
	case c.cfg.VTime.DeadlineSeconds > 0 && rel > c.cfg.VTime.DeadlineSeconds:
		reason = DropDeadline
	}
	if reason == ArrivalFolded && c.folded >= c.target {
		reason = DropDrain
	}
	// The byte-budget window consumes each reply's full round-trip
	// (downlink + uplink) in arrival order — a dispatch's downlink is
	// charged to the window its reply lands in, not the window it was
	// sent from.
	roundTrip := in.downBytes + upWire
	if reason == ArrivalFolded && c.cfg.VTime.RoundBytes > 0 && c.windowBytes+roundTrip > c.cfg.VTime.RoundBytes {
		reason = DropBudget
	}

	if c.trace != nil {
		stale := staleness
		if reason != ArrivalFolded {
			stale = -1
		}
		c.emit(obs.Event{
			Kind: obs.KindReply, Seq: in.seq, Device: in.device, Version: in.version,
			Staleness: stale, EpochsDone: done, BytesUp: upWire, BytesDown: in.downBytes,
			Seconds: rel, Disposition: reason.String(),
		})
	}

	var cmds []Command
	switch reason {
	case ArrivalFolded:
		c.cost.UplinkBytes += upWire
		c.windowBytes += roundTrip
		delta := tensor.GetVec(len(wk))
		for i := range wk {
			delta[i] = wk[i] - in.view[i]
		}
		c.buffer = append(c.buffer, StaleDelta{Delta: delta, Weight: c.foldWeight(c.sizes[r.Device], done), Version: in.version})
		if c.cfg.DeviceBudget != nil {
			c.work.add(done, in.epochs)
		}
		c.folded++
		if len(c.buffer) >= c.flushSize {
			if foldStaleDeltas(c.w, c.buffer, c.version, c.cfg.Sampling, c.async.Alpha, c.async.StalenessExponent, &c.stats) {
				c.version++
				c.emit(obs.Event{Kind: obs.KindFold, Round: c.folded / c.roundSize, Version: c.version, N: len(c.buffer)})
			}
			// The fold copied everything it needed into c.w; the buffered
			// deltas are dead.
			for _, sd := range c.buffer {
				tensor.PutVec(sd.Delta)
			}
			c.buffer = c.buffer[:0]
		}
		if c.folded%c.roundSize == 0 {
			c.windowBytes = 0 // the byte-budget window is per milestone
			milestone := c.folded / c.roundSize
			c.emit(obs.Event{Kind: obs.KindRoundClose, Round: milestone, N: c.roundSize, Seconds: math.NaN()})
			if milestone%c.cfg.EvalEvery == 0 || milestone == c.cfg.Rounds {
				// A milestone always folds exactly roundSize replies —
				// the async analogue of the sync per-round participant
				// count.
				more, err := c.beginEval(milestone, c.cfg.Mu, math.NaN(), c.roundSize, c.fillAsync)
				if err != nil {
					return nil, err
				}
				cmds = append(cmds, more...)
			}
		}
	case DropLost:
		// The reply vanished in transit: its uplink never reached the
		// coordinator, so no uplink bytes — only its downlink consumed
		// the window, and its work is waste.
		c.windowBytes += in.downBytes
		c.cost.WastedEpochs += done
		staleness = -1
	default: // DropDeadline, DropBudget, DropDrain
		// The transfer happened; the coordinator ignored it.
		c.cost.UplinkBytes += upWire
		c.windowBytes += roundTrip
		c.cost.WastedEpochs += done
		staleness = -1
	}
	// Past the disposition switch both the decoded solution and the
	// frozen broadcast view are dead (a fold copied what it needed into
	// its delta); recycle them.
	tensor.PutVec(wk)
	tensor.PutVec(in.view)
	if c.timed() {
		c.hist.Arrivals = append(c.hist.Arrivals, Arrival{
			Device:      in.device,
			Seq:         in.seq,
			Sent:        in.sentAt,
			Arrived:     c.now,
			Staleness:   staleness,
			Drop:        reason,
			EpochBudget: in.budget,
			EpochsDone:  done,
		})
	}
	if c.evalWait == nil {
		more, err := c.fillAsync()
		if err != nil {
			return nil, err
		}
		cmds = append(cmds, more...)
	}
	return cmds, nil
}

// WorkerLost evicts devices whose worker died (asynchronous runs): their
// in-flight work is charged as waste and aggregation continues on the
// survivors. Losing the last device fails the run.
func (c *Coordinator) WorkerLost(devices []int) ([]Command, error) {
	if !c.isAsync {
		return nil, errors.New("core: the synchronous protocol cannot continue without its workers")
	}
	for _, id := range devices {
		if id < 0 || id >= c.n || !c.live[id] {
			continue
		}
		c.live[id] = false
		c.liveDevices--
		c.idle.remove(id)
		c.emit(obs.Event{Kind: obs.KindWorkerLost, Device: id})
		if in, ok := c.pending[id]; ok {
			// The expected (budget-clamped) epochs stay charged; whatever
			// the dead worker computed is lost — waste. A dispatch whose
			// send was never confirmed carries no charges to waste.
			if in.charged {
				c.cost.WastedEpochs += in.expected
			}
			tensor.PutVec(in.view)
			delete(c.pending, id)
		}
	}
	if c.liveDevices == 0 {
		return nil, errors.New("core: aggregation lost every worker")
	}
	if c.evalWait != nil {
		return nil, nil
	}
	return c.fillAsync()
}

// ---------------------------------------------------------------------
// Shared reply and evaluation machinery
// ---------------------------------------------------------------------

// decodeReply recovers the device's solution from a Reply: encoded
// uplinks decode against the exact broadcast view the device trained
// from; raw Params pass through. Either way the solution must have the
// model's dimension — a reply is untrusted input, and a wrong-length
// vector would otherwise panic (or silently corrupt) the fold.
func (c *Coordinator) decodeReply(in *pendingDispatch, r Reply) (wk []float64, upWire int64, err error) {
	wk, upWire = r.Params, c.paramBytes
	if r.Update != nil {
		if c.links == nil {
			return nil, 0, errors.New("core: encoded reply on a run without codec links")
		}
		if wk, err = c.links.uplinkDecode(in.device, r.Update, in.view); err != nil {
			return nil, 0, err
		}
		upWire = r.Update.WireBytes()
	}
	if len(wk) != len(c.w) {
		return nil, 0, fmt.Errorf("core: device %d replied with %d parameters, model has %d", in.device, len(wk), len(c.w))
	}
	return wk, upWire, nil
}

// HandleReply delivers one device's training result. Replies arriving
// while an evaluation is pending are queued and processed after
// EvalDone, in arrival order.
func (c *Coordinator) HandleReply(r Reply) ([]Command, error) {
	if !c.started {
		return nil, errors.New("core: reply before Start")
	}
	if c.evalWait != nil {
		c.queued = append(c.queued, r)
		return nil, nil
	}
	if c.isAsync {
		return c.handleAsyncReply(r)
	}
	in, ok := c.pending[r.Device]
	if !ok {
		return nil, fmt.Errorf("core: reply from device %d with no outstanding dispatch", r.Device)
	}
	delete(c.pending, r.Device)
	wk, upWire, err := c.decodeReply(in, r)
	if err != nil {
		return nil, err
	}
	c.round.replies[in.index] = &syncReply{
		wk:      wk,
		nk:      c.sizes[r.Device],
		done:    c.realizedEpochs(in.expected, r.EpochsDone),
		budget:  in.budget,
		gamma:   r.Gamma,
		upBytes: upWire,
		seq:     r.Seq,
		rel:     r.Rel,
		lost:    r.Lost,
		timed:   r.Timed,
	}
	c.round.outstanding--
	if c.round.outstanding > 0 {
		return nil, nil
	}
	return c.completeRound()
}

// beginEval opens one evaluation: the global model is encoded once on
// the shared eval link (broadcast semantics) and the Evaluate command
// carries both the encoded update for wire drivers and the decoded view
// in-process drivers measure at.
func (c *Coordinator) beginEval(round int, mu, gamma float64, participants int, after func() ([]Command, error)) ([]Command, error) {
	c.evalSeq++
	params := c.w
	var u *comm.Update
	wire := c.paramBytes
	if c.links != nil {
		var err error
		u, params, err = c.links.evalBroadcast(c.w)
		if err != nil {
			return nil, err
		}
		wire = u.WireBytes()
		// Analytic eval accounting exists only under the explicit codec
		// link model (legacy accounting predates eval encoding).
		if !c.legacy {
			c.cost.EvalBytes += wire
		}
	}
	c.evalWait = &evalPending{round: round, mu: mu, gamma: gamma, participants: participants, after: after}
	return []Command{Evaluate{
		Round:              round,
		Seq:                c.evalSeq,
		Update:             u,
		Params:             params,
		WireBytes:          wire,
		TrackDissimilarity: c.cfg.TrackDissimilarity,
	}}, nil
}

// EvalDone answers an Evaluate command: the point is recorded with the
// coordinator's cumulative cost and staleness statistics, then the run
// continues (queued replies first, in arrival order).
func (c *Coordinator) EvalDone(e EvalResult) ([]Command, error) {
	ew := c.evalWait
	if ew == nil {
		return nil, errors.New("core: unexpected EvalDone")
	}
	c.evalWait = nil

	p := Point{
		Round:           ew.round,
		TrainLoss:       e.Loss,
		TestAcc:         e.Acc,
		GradVar:         math.NaN(),
		B:               math.NaN(),
		Mu:              ew.mu,
		MeanGamma:       ew.gamma,
		Participants:    ew.participants,
		MeanStaleness:   math.NaN(),
		MaxStaleness:    math.NaN(),
		VirtualSeconds:  c.now,
		MeanEpochsDone:  math.NaN(),
		PartialFraction: math.NaN(),
		Cost:            c.cost,
	}
	if c.cfg.DeviceBudget != nil && c.work.N > 0 {
		p.MeanEpochsDone = float64(c.work.Done) / float64(c.work.N)
		p.PartialFraction = float64(c.work.Partial) / float64(c.work.N)
	}
	c.work = workStats{}
	if c.cfg.TrackDissimilarity {
		p.GradVar, p.B = e.GradVar, e.B
	}
	p.Cost.WireUplinkBytes = e.WireUplinkBytes
	p.Cost.WireDownlinkBytes = e.WireDownlinkBytes
	if c.isAsync {
		if c.stats.n > 0 {
			p.MeanStaleness = c.stats.sum / float64(c.stats.n)
			p.MaxStaleness = c.stats.max
		}
		c.stats = foldStats{}
	}
	c.hist.Points = append(c.hist.Points, p)
	c.emit(obs.Event{Kind: obs.KindEval, Round: ew.round, Loss: e.Loss, Acc: e.Acc})

	cmds, err := ew.after()
	if err != nil {
		return nil, err
	}
	for len(c.queued) > 0 && c.evalWait == nil {
		r := c.queued[0]
		c.queued = c.queued[1:]
		more, err := c.HandleReply(r)
		if err != nil {
			return nil, err
		}
		cmds = append(cmds, more...)
	}
	return cmds, nil
}

// foldWeight resolves one update's aggregation weight under
// Config.FoldWeight: the device's n_k, or its realized local epochs.
func (c *Coordinator) foldWeight(nk float64, done int) float64 {
	if c.cfg.FoldWeight == WeightByEpochs {
		return float64(done)
	}
	return nk
}

// aggregate folds a synchronous round's updates into w in place.
func aggregate(w []float64, params [][]float64, nks []float64, scheme SamplingScheme) {
	switch scheme {
	case WeightedSimpleAvg:
		tensor.Mean(w, params)
	default:
		tensor.WeightedMean(w, params, nks)
	}
}
