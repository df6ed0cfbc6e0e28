package core

import (
	"errors"
	"math"

	"fedprox/internal/frand"
	"fedprox/internal/model"
	"fedprox/internal/tier"
)

// RunTiered executes one federated optimization run of cfg over fl with
// hierarchical aggregation: the root coordinator fans into topo.Depth
// tiers of edge aggregators, and only the leaf tier contacts devices.
// Every aggregator wraps its own sans-I/O Coordinator in stepped mode —
// the parent's broadcast re-bases the edge's model (Resume), the edge
// runs one full synchronous round over its children as its "window",
// and the fold it pauses on travels upstream as a single device reply.
// Aggregation is therefore the same weighted fold at every level, with
// an edge weighted by its subtree's training examples.
//
// The payoff is the root's ingress: per window the root receives
// K/FanOut^Depth edge replies instead of K device replies, so the
// returned History's Cost.UplinkBytes (root ingress) shrinks by ~FanOut
// while the same K devices run the same local work. Per-hop codec links
// compose: each tier encodes its broadcasts and uplinks independently,
// and on virtual-time runs topo.Model prices the aggregator legs on
// those encoded sizes, so the root's round critical path sees tier
// delay.
//
// A disabled topology delegates to RunFleet — bit-identical to the flat
// run per seed. An enabled one rejects the config axes whose semantics
// are inherently single-coordinator (async modes, adaptive-μ,
// γ-tracking, checkpointing, capability re-planning, device budgets);
// codecs, privacy, straggler policies, sampling schemes, fold weights,
// and virtual time all compose. Note the returned Cost.DeviceEpochs
// includes the root's pseudo-epoch charge for its edge children (one
// LocalEpochs target per edge per window) on top of the leaves' real
// device epochs.
func RunTiered(m model.Model, fl Fleet, cfg Config, topo tier.Topology) (*History, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := topo.Validate(cfg.ClientsPerRound, fl.NumDevices()); err != nil {
		return nil, err
	}
	if !topo.Enabled() {
		return RunFleet(m, fl, cfg)
	}
	switch {
	case cfg.Async.Enabled():
		return nil, errors.New("core: tiered aggregation is synchronous; async modes have no windowed fold")
	case cfg.AdaptiveMu:
		return nil, errors.New("core: tiered aggregation does not support adaptive mu (per-tier controllers would diverge)")
	case cfg.TrackGamma:
		return nil, errors.New("core: tiered aggregation does not support TrackGamma")
	case cfg.Checkpointer != nil:
		return nil, errors.New("core: tiered aggregation does not support checkpointing")
	case cfg.Capability != nil:
		return nil, errors.New("core: tiered aggregation does not support capability re-planning")
	case cfg.DeviceBudget != nil:
		return nil, errors.New("core: tiered aggregation does not support device budgets")
	}
	cfg = cfg.WithDefaults()

	d := &tieredRun{
		m:     m,
		fl:    fl,
		cfg:   cfg,
		topo:  topo,
		timed: cfg.VTime.Enabled(),
		seeds: frand.New(cfg.Seed).Split("tier"),
	}
	d.dev = NewFleetDevice(m, fl, DeviceOptions{Solver: cfg.Solver, Privacy: cfg.Privacy, Precision: cfg.Precision})
	if cfg.Codec.Enabled() {
		down, up := cfg.CommSpecs()
		if err := d.dev.InstallLinks(down, up); err != nil {
			return nil, err
		}
	}

	d.pool = newSolvePool(cfg.Parallelism, cfg.ClientsPerRound)
	defer d.pool.close()

	root, err := d.buildRoot()
	if err != nil {
		return nil, err
	}
	if d.timed {
		root.coord.Tick(root.vt.eng.Now())
	}
	cmds, err := root.coord.Start()
	if err != nil {
		return nil, err
	}
	if _, err := Drive(root.coord, cmds, tierTransport{d, root}); err != nil {
		return nil, err
	}
	return root.coord.History(), nil
}

// tierNode is one aggregator in the tree: its coordinator, its children
// (aggregators, or for a leaf the owned device slice), and its virtual
// clock mirror.
type tierNode struct {
	coord    *Coordinator
	children []*tierNode
	leaf     bool
	lo, hi   int     // leaf: owned global device range [lo, hi)
	size     int     // subtree training examples (the node's fold weight)
	uid      int     // unique node index: topo.Model's "device" stream key
	vt       *vtimer // per-node engine (timed runs only)
}

// tieredRun is the driver state shared across the tree.
type tieredRun struct {
	m     model.Model
	fl    Fleet
	cfg   Config
	topo  tier.Topology
	dev   *Device    // one fleet device runtime shared by every leaf
	pool  *solvePool // the leaves' solve pool
	seeds *frand.Source
	timed bool

	nextUID int
	leafIdx int
	legSeq  int // aggregator-leg jitter/loss stream sequence
}

// nodeSeed derives a per-aggregator seed: node uid under the run seed's
// "tier" split, so edge selection/straggler streams are independent of
// each other and of the root's.
func (d *tieredRun) nodeSeed(uid int) uint64 {
	return d.seeds.SplitIndex(uid).State()
}

// buildRoot builds the whole tree depth-first (uids and leaf slices
// assigned in construction order, so the shape is deterministic) and
// returns the root, with every aggregator below it started and paused
// before its first window.
func (d *tieredRun) buildRoot() (*tierNode, error) {
	cohort := d.topo.RootCohort(d.cfg.ClientsPerRound)
	nd := &tierNode{uid: d.nextUID}
	d.nextUID++
	children, err := d.buildChildren(nd, 1, cohort)
	if err != nil {
		return nil, err
	}
	nd.children = children

	// The root keeps the run's own seed (same init stream as the flat
	// run), evaluation cadence, and fold semantics; only its cohort
	// changes — it contacts every tier-1 aggregator every round. The
	// device-leg deadline/byte policies stay at the leaves, where device
	// replies race; root-side drops come from topo.Model alone.
	rc := d.cfg
	rc.ClientsPerRound = cohort
	rc.StragglerFraction = 0
	rc.VTime = VTimeConfig{Model: d.cfg.VTime.Model}
	coord, err := NewCoordinator(d.m, rc, CoordinatorOptions{
		NumDevices:  cohort,
		Tier:        1,
		LabelSuffix: d.topo.Suffix(),
	})
	if err != nil {
		return nil, err
	}
	nd.coord = coord
	if err := d.registerChildren(nd); err != nil {
		return nil, err
	}
	if d.timed {
		nd.vt = newVtimer(coord)
	}
	return nd, nil
}

// buildChildren builds n subtrees rooted at depth (1 = the root's
// children), each started and paused.
func (d *tieredRun) buildChildren(parent *tierNode, depth, n int) ([]*tierNode, error) {
	children := make([]*tierNode, n)
	for i := range children {
		child, err := d.buildNode(depth)
		if err != nil {
			return nil, err
		}
		children[i] = child
		parent.size += child.size
	}
	return children, nil
}

// buildNode builds one aggregator at depth: a leaf edge owning a device
// slice when depth == topo.Depth, an interior aggregator over FanOut
// subtrees otherwise.
func (d *tieredRun) buildNode(depth int) (*tierNode, error) {
	nd := &tierNode{uid: d.nextUID}
	d.nextUID++

	nc := d.cfg
	nc.ClientsPerRound = d.topo.FanOut
	nc.EvalEvery = nc.Rounds // evals below the root are stubbed; don't plan them
	nc.TrackDissimilarity = false
	nc.Seed = d.nodeSeed(nd.uid)
	var numDevices int
	if depth == d.topo.Depth {
		// Leaf edge: owns a contiguous slice of the fleet and selects
		// FanOut of its devices per window with its own selection stream.
		// It keeps the full device-leg virtual-time policies and the
		// straggler fraction — device tails are cut where devices reply.
		nd.leaf = true
		leaves := d.topo.Leaves(d.cfg.ClientsPerRound)
		nd.lo, nd.hi = tier.Partition(d.fl.NumDevices(), leaves, d.leafIdx)
		d.leafIdx++
		numDevices = nd.hi - nd.lo
	} else {
		// Interior aggregator: contacts all FanOut children every window.
		children, err := d.buildChildren(nd, depth+1, d.topo.FanOut)
		if err != nil {
			return nil, err
		}
		nd.children = children
		nc.StragglerFraction = 0
		nc.VTime = VTimeConfig{Model: d.cfg.VTime.Model}
		numDevices = d.topo.FanOut
	}
	coord, err := NewCoordinator(d.m, nc, CoordinatorOptions{
		NumDevices: numDevices,
		Stepped:    true,
		Tier:       depth + 1,
	})
	if err != nil {
		return nil, err
	}
	nd.coord = coord
	if nd.leaf {
		regs := make([]DeviceReg, 0, numDevices)
		for g := nd.lo; g < nd.hi; g++ {
			sz := d.fl.TrainSize(g)
			regs = append(regs, DeviceReg{ID: g - nd.lo, TrainSize: sz})
			nd.size += sz
		}
		if _, err := coord.RegisterWorker(regs); err != nil {
			return nil, err
		}
	} else if err := d.registerChildren(nd); err != nil {
		return nil, err
	}
	if d.timed {
		nd.vt = newVtimer(coord)
		nd.vt.localEval = true
	}
	// Run the aggregator to its first Pause: the round-0 evaluation
	// chain, answered with the stub.
	cmds, err := coord.Start()
	if err != nil {
		return nil, err
	}
	end, err := Drive(coord, cmds, tierTransport{d, nd})
	if err != nil {
		return nil, err
	}
	if _, ok := end.(Pause); !ok {
		return nil, errors.New("core: tiered aggregator finished before its first window")
	}
	return nd, nil
}

// registerChildren registers nd's child aggregators as its coordinator's
// pseudo-devices, each weighted by its subtree's training examples — the
// weight the parent's fold gives the child's aggregate.
func (d *tieredRun) registerChildren(nd *tierNode) error {
	regs := make([]DeviceReg, len(nd.children))
	for i, c := range nd.children {
		regs[i] = DeviceReg{ID: i, TrainSize: c.size}
	}
	_, err := nd.coord.RegisterWorker(regs)
	return err
}

// evalStub answers an aggregator's Evaluate command: edges never
// measure the network (only the root does), so their recorded points
// carry NaNs and are discarded with their Histories.
func evalStub() EvalResult {
	nan := math.NaN()
	return EvalResult{Loss: nan, Acc: nan, GradVar: nan, B: nan}
}

// serveChild executes one parent dispatch against a child aggregator:
// the child's window runs on the parent's decoded broadcast view, and
// the child's fold comes back as a single device reply — re-encoded on
// the parent's uplink when the run has codec links, so codecs compose
// per hop and the wire sizes price the aggregator legs.
func (d *tieredRun) serveChild(parent *tierNode, v Dispatch) (Reply, error) {
	child := parent.children[v.Device]
	seq := d.legSeq
	d.legSeq++
	start, down := math.NaN(), 0.0
	if d.timed {
		if d.topo.Model != nil {
			down = d.topo.Model.DownlinkSeconds(seq, child.uid, v.DownBytes)
		}
		start = parent.vt.eng.Now() + down
	}
	dur, err := d.runWindow(child, v.View, start)
	if err != nil {
		return Reply{}, err
	}
	// The reply's EpochsDone is the dispatched pseudo-target: aggregator
	// accounting charges the target, and the epoch-weighted fold then
	// weighs every edge equally (an edge's real device work is already
	// weighted inside its own fold).
	r := Reply{Device: v.Device, EpochsDone: v.Epochs}
	if parent.coord.links != nil {
		u, err := parent.coord.links.uplinkEncode(v.Device, child.coord.Params(), v.View)
		if err != nil {
			return Reply{}, err
		}
		r.Update = u
	} else {
		r.Params = child.coord.Params()
	}
	if d.timed {
		up, lost := 0.0, false
		if d.topo.Model != nil {
			up = d.topo.Model.UplinkSeconds(seq, child.uid, parent.vt.uplinkBytes(r))
			lost = d.topo.Model.Dropped(seq, child.uid)
		}
		r.Timed, r.Seq, r.Rel, r.Lost = true, seq, down+dur+up, lost
	}
	return r, nil
}

// runWindow resumes a paused aggregator on the parent's broadcast view
// and executes one window — a full synchronous round over its children,
// recursing for interior nodes and solving on the shared fleet device
// for leaves — until the coordinator pauses again (or finishes its
// schedule). Returns the window's virtual duration (NaN untimed).
func (d *tieredRun) runWindow(nd *tierNode, view []float64, start float64) (float64, error) {
	if d.timed {
		// The child's clock joins the global timeline at the moment the
		// parent's broadcast reaches it; parent windows are monotone, so
		// the target never precedes the node's own clock by design.
		if dt := start - nd.vt.eng.Now(); dt > 0 {
			nd.vt.eng.Advance(dt)
		}
		nd.coord.Tick(nd.vt.eng.Now())
	}
	cmds, err := nd.coord.Resume(view)
	if err != nil {
		return 0, err
	}
	if _, err := Drive(nd.coord, cmds, tierTransport{d, nd}); err != nil {
		return 0, err
	}
	if d.timed {
		return nd.vt.eng.Now() - start, nil
	}
	return math.NaN(), nil
}

// tierTransport serves one aggregator's commands. A leaf edge solves its
// dispatches on the shared fleet device; the root and interior
// aggregators serve each dispatch as a child aggregator's window — a
// nested Drive that ends on the child's Pause. Child windows run
// sequentially in dispatch order (the determinism rule); virtual time
// still overlaps them, since every leg is priced relative to the window
// start. Only the root measures: the global eval broadcast rides the
// device-leg model exactly as in the flat drivers, while edges answer
// their evaluations with the stub.
type tierTransport struct {
	d  *tieredRun
	nd *tierNode
}

func (t tierTransport) Send(ds []Dispatch) ([]Reply, error) {
	if t.nd.leaf {
		return t.d.solveLeaf(t.nd, ds)
	}
	replies := make([]Reply, len(ds))
	for i, v := range ds {
		r, err := t.d.serveChild(t.nd, v)
		if err != nil {
			return nil, err
		}
		replies[i] = r
	}
	return replies, nil
}

func (t tierTransport) Evaluate(v Evaluate) (EvalResult, error) {
	if t.nd.coord.tier > 0 {
		return evalStub(), nil
	}
	return simEval(t.d.m, t.d.fl, v), nil
}

func (t tierTransport) Wait() ([]Command, bool, error) { return nil, false, nil }

func (t tierTransport) clock() *vtimer { return t.nd.vt }

// solveLeaf serves a leaf window's dispatches on the shared fleet
// device. The edge coordinator speaks local device ids (its slice of
// the fleet); the device runtime keys shards and link state globally,
// so dispatches are remapped up and replies back down. The mapping is
// fixed for the run, so the edge-side and device-side codec chains of a
// device stay in lockstep.
func (d *tieredRun) solveLeaf(nd *tierNode, ds []Dispatch) ([]Reply, error) {
	global := make([]Dispatch, len(ds))
	for i, v := range ds {
		v.Device += nd.lo
		global[i] = v
	}
	replies, err := serveNow(d.pool, d.dev, nd.vt, global)
	if err != nil {
		return nil, err
	}
	for i := range replies {
		replies[i].Device -= nd.lo
	}
	return replies, nil
}
