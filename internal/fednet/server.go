package fednet

import (
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fedprox/internal/comm"
	"fedprox/internal/core"
	"fedprox/internal/model"
	"fedprox/internal/obs"
)

// ServerConfig parameterizes a coordinator.
type ServerConfig struct {
	// Training carries the federated hyperparameters. TrackDissimilarity,
	// TrackGamma, Capability, AdaptiveMu, and Solver are simulator-only
	// features and must be unset (workers choose their own local solver).
	// Training.Async selects the aggregation discipline: the default
	// synchronous rounds reproduce the simulator bit for bit; AsyncTotal
	// and Buffered trade that determinism for straggler tolerance.
	Training core.Config
	// ExpectDevices is the total number of devices that must register
	// (across all workers) before training starts. Device IDs must cover
	// exactly 0..ExpectDevices-1 so the environment streams line up with
	// the simulator's.
	ExpectDevices int
	// RequestTimeout bounds how long the coordinator waits for any reply
	// on a connection — and how long any single send may block, so a
	// worker that stops reading is also caught — before declaring the
	// worker dead (zero waits forever). The synchronous protocol fails
	// the run on a timed-out worker; the asynchronous modes evict the
	// worker's devices and keep aggregating from the rest.
	RequestTimeout time.Duration
	// Tier is 1 + this coordinator's depth in a hierarchical deployment
	// (1 = the tree's root, whose devices are edge aggregators); 0 is an
	// untiered flat deployment. Trace events carry Tier-1 so `fedtrace
	// summary` can roll dispatches and stragglers up by tier.
	Tier int
}

// Server is the federated coordinator's transport: it owns the worker
// connections and the wire protocol, and never sees training data. All
// protocol decisions — selection, straggler policies, aggregation and
// the staleness-damped folds, accounting — happen in the shared
// core.Coordinator; this package only translates its Dispatch/Evaluate
// commands into TrainRequest/EvalRequest exchanges and feeds worker
// replies, losses, and (re-)registrations back as events. Cross-executor
// equivalence with the simulator therefore holds by construction.
type Server struct {
	mdl   model.Model
	cfg   ServerConfig
	coord *core.Coordinator

	// downSpec/upSpec are the negotiated codec specs ("raw" when the
	// training config carries no codec, so the wire always moves
	// comm.Updates).
	downSpec comm.Spec
	upSpec   comm.Spec

	// bytesIn/bytesOut meter actual serialized traffic across all worker
	// connections.
	bytesIn, bytesOut atomic.Int64

	conns   []*conn
	devices map[int]*device // device ID -> hosting connection + size
	weights []float64       // p_k, for combining distributed evaluations

	// trace mirrors Training.Trace for transport-level events the
	// coordinator core never sees: worker registration and the distributed
	// evaluation span. Server events are always untimed (Time NaN) — a
	// deployment wraps the sink in obs.WallClock for wall-clock stamps.
	trace obs.Sink
}

type device struct {
	conn      *conn
	trainSize int
}

// NewServer builds a coordinator for the given model and configuration.
func NewServer(mdl model.Model, cfg ServerConfig) (*Server, error) {
	return newServerWithOptions(mdl, cfg, core.CoordinatorOptions{
		NumDevices: cfg.ExpectDevices,
		Tier:       cfg.Tier,
		// The wire protocol always carries encoded updates; no codec
		// means raw, which reproduces the uncompressed trajectory bit
		// for bit.
		WireEncoded: true,
		LabelSuffix: " [fednet]",
	})
}

// newServerWithOptions is NewServer with the coordinator options under
// the caller's control — the tier edge builds its child-facing half
// here with a stepped, tier-stamped coordinator.
func newServerWithOptions(mdl model.Model, cfg ServerConfig, opts core.CoordinatorOptions) (*Server, error) {
	if err := cfg.Training.Validate(); err != nil {
		return nil, err
	}
	if cfg.Training.TrackDissimilarity || cfg.Training.TrackGamma {
		return nil, errors.New("fednet: dissimilarity/gamma tracking is simulator-only")
	}
	if cfg.Training.AdaptiveMu {
		return nil, errors.New("fednet: adaptive mu is simulator-only")
	}
	if cfg.Training.Capability != nil {
		return nil, errors.New("fednet: capability models are simulator-only")
	}
	if cfg.Training.Solver != nil {
		return nil, errors.New("fednet: local solvers are chosen by workers")
	}
	if cfg.Training.Privacy != nil {
		// The mechanism is client-side state (it runs between the local
		// solve and the uplink encode, inside core.Device); a server
		// config cannot install it on remote workers. Reject rather than
		// silently train without privacy.
		return nil, errors.New("fednet: update-level privacy is device-side state; configure it on the workers (fednet.NewWorkerWithOptions / fedworker privacy flags)")
	}
	if cfg.Training.Checkpointer != nil {
		return nil, errors.New("fednet: checkpointing is simulator-only")
	}
	if cfg.Training.VTime.Enabled() {
		// The deadline/byte-budget policies are clock-native: they need
		// the virtual engine's reply latencies, which a real transport
		// does not have. Reject rather than half-apply them.
		return nil, errors.New("fednet: virtual-time models are simulator-only")
	}
	if cfg.ExpectDevices <= 0 {
		return nil, errors.New("fednet: ExpectDevices must be positive")
	}
	coord, err := core.NewCoordinator(mdl, cfg.Training, opts)
	if err != nil {
		return nil, err
	}
	down, up := coord.CommSpecs()
	return &Server{
		mdl:      mdl,
		cfg:      cfg,
		coord:    coord,
		downSpec: down,
		upSpec:   up,
		devices:  make(map[int]*device),
		trace:    cfg.Training.Trace,
	}, nil
}

// emit reports one transport-level event. Server events carry no virtual
// clock; Time is NaN so an obs.WallClock wrapper can stamp them.
func (s *Server) emit(e obs.Event) {
	if s.trace == nil {
		return
	}
	e.Time = math.NaN()
	s.trace.Emit(e)
}

// BytesOnWire returns the actual serialized bytes moved over all worker
// connections so far: read is worker→coordinator traffic (uplink),
// written is coordinator→worker (downlink). Both include gob framing and
// evaluation messages, which the analytic Cost accounting excludes.
func (s *Server) BytesOnWire() (read, written int64) {
	return s.bytesIn.Load(), s.bytesOut.Load()
}

// Run listens on addr, waits for every device to register, executes the
// training schedule, shuts the workers down, and returns the trajectory.
func (s *Server) Run(addr string) (*core.History, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fednet: listen %s: %w", addr, err)
	}
	defer ln.Close()
	return s.RunWithListener(ln)
}

// RunWithListener is Run over a caller-provided listener (tests use an
// ephemeral loopback listener). Workers that registered are always shut
// down, including when registration itself fails partway (e.g. a
// later-connecting worker refuses the codec) — otherwise the
// already-welcomed workers would block in recv forever. Asynchronous
// runs keep accepting on the listener for the whole run, so an evicted
// worker can reconnect and be re-admitted, and close it when done.
func (s *Server) RunWithListener(ln net.Listener) (*core.History, error) {
	defer s.shutdownWorkers()
	if err := s.acceptAll(ln); err != nil {
		return nil, err
	}
	s.weights = s.deviceWeights()
	var t core.Transport = syncTransport{s: s}
	if s.cfg.Training.Async.Enabled() {
		d := s.startAsync(ln)
		defer d.stop()
		t = d
	}
	cmds, err := s.coord.Start()
	if err != nil {
		return nil, err
	}
	if _, err := core.Drive(s.coord, cmds, t); err != nil {
		return nil, err
	}
	return s.coord.History(), nil
}

// acceptAll accepts worker connections until every expected device has
// registered, feeding each registration to the coordinator.
func (s *Server) acceptAll(ln net.Listener) error {
	registered := 0
	for registered < s.cfg.ExpectDevices {
		raw, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("fednet: accept: %w", err)
		}
		c := s.newMeteredConn(raw)
		env, err := c.recv()
		if err != nil {
			return err
		}
		if env.Hello == nil {
			return fmt.Errorf("fednet: expected Hello, got %+v", env)
		}
		s.conns = append(s.conns, c)
		if err := s.checkCodecOffer(c, env.Hello); err != nil {
			return err
		}
		if err := c.send(Envelope{Welcome: &Welcome{Downlink: s.downSpec, Uplink: s.upSpec}}); err != nil {
			return err
		}
		regs := make([]core.DeviceReg, 0, len(env.Hello.Devices))
		for _, d := range env.Hello.Devices {
			regs = append(regs, core.DeviceReg{ID: d.ID, TrainSize: d.TrainSize})
		}
		if _, err := s.coord.RegisterWorker(regs); err != nil {
			return fmt.Errorf("fednet: %w", err)
		}
		s.emit(obs.Event{Kind: obs.KindWorkerJoin, N: len(env.Hello.Devices)})
		for _, d := range env.Hello.Devices {
			s.devices[d.ID] = &device{conn: c, trainSize: d.TrainSize}
			registered++
		}
	}
	return nil
}

// newMeteredConn wraps an accepted connection with byte metering and the
// send timeout: a worker that stops reading must surface as a send
// error, not block the coordinator in gob Encode with its TCP buffers
// full.
func (s *Server) newMeteredConn(raw net.Conn) *conn {
	c := newConn(meteredConn{Conn: raw, read: &s.bytesIn, written: &s.bytesOut})
	c.sendTimeout = s.cfg.RequestTimeout
	return c
}

// codecOfferError is the single codec-negotiation rule: the worker must
// offer both directions' codecs (an empty offer means raw only). It
// returns the rejection message, or "" when the offer is acceptable —
// callers decide whether a rejection is fatal (initial registration) or
// survivable (mid-run re-admission).
func (s *Server) codecOfferError(hello *Hello) string {
	offered := hello.Codecs
	if len(offered) == 0 {
		offered = []string{"raw"}
	}
	for _, want := range []string{s.downSpec.Name, s.upSpec.Name} {
		if !slices.Contains(offered, want) {
			return fmt.Sprintf("fednet: coordinator requires codec %q, worker offers %v", want, offered)
		}
	}
	precs := hello.Precisions
	if len(precs) == 0 {
		precs = []string{"f64"}
	}
	if want := s.downSpec.Precision.String(); !slices.Contains(precs, want) {
		return fmt.Sprintf("fednet: coordinator requires precision %q, worker offers %v", want, precs)
	}
	return ""
}

// checkCodecOffer enforces codecOfferError fatally, telling the worker
// why before failing the registration.
func (s *Server) checkCodecOffer(c *conn, hello *Hello) error {
	if msg := s.codecOfferError(hello); msg != "" {
		_ = c.send(Envelope{Welcome: &Welcome{Err: msg}})
		return errors.New(msg)
	}
	return nil
}

// deviceWeights returns p_k = n_k/n over the registered devices, the
// combination weights for distributed evaluation.
func (s *Server) deviceWeights() []float64 {
	weights := make([]float64, s.cfg.ExpectDevices)
	total := 0
	for id, d := range s.devices {
		weights[id] = float64(d.trainSize)
		total += d.trainSize
	}
	for i := range weights {
		weights[i] /= float64(total)
	}
	return weights
}

func (s *Server) shutdownWorkers() {
	for _, c := range s.conns {
		_ = c.send(Envelope{Shutdown: &Shutdown{}})
		_ = c.close()
	}
}

// syncTransport runs the synchronous protocol over TCP: each batch of
// dispatches becomes one round of concurrent TrainRequest round-trips,
// and any worker failure fails the run — the synchronous protocol
// cannot continue without its devices. Evaluations are distributed
// broadcasts, except on a tier edge: its parent owns real evaluation
// (and reaches the subtree through EvalRequest forwarding), so the
// edge-local schedule's own evaluations are answered with NaN and its
// History never pretends to hold global metrics.
type syncTransport struct {
	s    *Server
	edge bool
}

func (t syncTransport) Send(ds []core.Dispatch) ([]core.Reply, error) { return t.s.roundTripAll(ds) }

func (t syncTransport) Evaluate(v core.Evaluate) (core.EvalResult, error) {
	if t.edge {
		return core.EvalResult{Loss: math.NaN(), Acc: math.NaN()}, nil
	}
	return t.s.evaluate(v)
}

func (syncTransport) Wait() ([]core.Command, bool, error) { return nil, false, nil }

// roundTripAll executes one round's dispatches concurrently (one
// goroutine per device, serialized per shared connection by the conn's
// round-trip lock) and returns the replies in dispatch order.
func (s *Server) roundTripAll(dispatches []core.Dispatch) ([]core.Reply, error) {
	type result struct {
		reply core.Reply
		err   error
	}
	results := make([]result, len(dispatches))
	var wg sync.WaitGroup
	for i, d := range dispatches {
		wg.Add(1)
		go func(i int, d core.Dispatch) {
			defer wg.Done()
			env, err := s.roundTrip(s.devices[d.Device].conn, Envelope{TrainRequest: newTrainRequest(d)})
			if err != nil {
				results[i] = result{err: err}
				return
			}
			if env.TrainReply == nil {
				results[i] = result{err: fmt.Errorf("fednet: expected TrainReply, got %+v", env)}
				return
			}
			r, err := env.TrainReply.coreReply()
			if err == nil && r.Device != d.Device {
				err = fmt.Errorf("fednet: reply names device %d", r.Device)
			}
			results[i] = result{reply: r, err: err}
		}(i, d)
	}
	wg.Wait()
	replies := make([]core.Reply, 0, len(dispatches))
	for i, r := range results {
		if r.err != nil {
			return nil, fmt.Errorf("fednet: round %d device %d: %w", dispatches[i].Round, dispatches[i].Device, r.err)
		}
		replies = append(replies, r.reply)
	}
	return replies, nil
}

// roundTrip serializes one request/response exchange on a connection.
// The connection's send lock plus the strict request/response protocol
// per device make concurrent exchanges from different devices on the same
// worker safe only if serialized — the per-conn reply lock does that.
// With a RequestTimeout configured the reply wait is bounded: a worker
// that never answers surfaces as an i/o timeout instead of hanging the
// deployment.
func (s *Server) roundTrip(c *conn, e Envelope) (Envelope, error) {
	c.rtMu.Lock()
	defer c.rtMu.Unlock()
	if err := c.send(e); err != nil {
		return Envelope{}, err
	}
	if s.cfg.RequestTimeout > 0 {
		c.armRecvDeadline(s.cfg.RequestTimeout)
		defer c.armRecvDeadline(0)
	}
	return c.recv()
}

// evaluate gathers distributed metrics for one Evaluate command and
// combines them exactly as internal/metrics does (ascending-device
// weighted sum), so losses match the simulator bit for bit. The global
// model travels encoded on the shared eval link. The synchronous path
// never renormalizes: all devices report or the run fails, and dividing
// by the full weight sum would perturb the bit-reproducible trajectory.
func (s *Server) evaluate(v core.Evaluate) (core.EvalResult, error) {
	all, err := s.gatherEvals(v)
	if err != nil {
		return core.EvalResult{}, err
	}
	loss, acc := combineEvals(all, s.weights, false)
	res := core.EvalResult{Loss: loss, Acc: acc}
	res.WireUplinkBytes, res.WireDownlinkBytes = s.BytesOnWire()
	return res, nil
}

// gatherEvals broadcasts one Evaluate to every connection and collects
// the raw per-device contributions — the tier edge folds these into a
// single pseudo-device report instead of combining them into a scalar.
func (s *Server) gatherEvals(v core.Evaluate) ([]DeviceEval, error) {
	defer obs.StartSpan(s.trace, obs.Event{Label: "fednet-eval", Device: -1}).End()
	type shardEval struct {
		evals []DeviceEval
		err   error
	}
	out := make([]shardEval, len(s.conns))
	var wg sync.WaitGroup
	for i, c := range s.conns {
		wg.Add(1)
		go func(i int, c *conn) {
			defer wg.Done()
			env, err := s.roundTrip(c, Envelope{EvalRequest: &EvalRequest{Seq: v.Seq, Update: *v.Update}})
			if err != nil {
				out[i] = shardEval{err: err}
				return
			}
			if env.EvalReply == nil {
				out[i] = shardEval{err: fmt.Errorf("fednet: expected EvalReply, got %+v", env)}
				return
			}
			if env.EvalReply.Err != "" {
				out[i] = shardEval{err: errors.New(env.EvalReply.Err)}
				return
			}
			out[i] = shardEval{evals: env.EvalReply.Devices}
		}(i, c)
	}
	wg.Wait()

	var all []DeviceEval
	for _, o := range out {
		if o.err != nil {
			return nil, o.err
		}
		all = append(all, o.evals...)
	}
	return all, nil
}

// combineEvals folds per-device metric contributions into the global
// training loss and test accuracy, in ascending device order so the
// float summation matches internal/metrics exactly.
func combineEvals(all []DeviceEval, weights []float64, renormalize bool) (loss, acc float64) {
	sort.Slice(all, func(i, j int) bool { return all[i].Device < all[j].Device })
	correct, testN := 0, 0
	wsum := 0.0
	for _, ev := range all {
		loss += weights[ev.Device] * ev.TrainLoss
		wsum += weights[ev.Device]
		correct += ev.Correct
		testN += ev.TestN
	}
	if renormalize && wsum > 0 {
		loss /= wsum
	}
	if testN > 0 {
		acc = float64(correct) / float64(testN)
	}
	return loss, acc
}
