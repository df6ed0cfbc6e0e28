package fednet

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"

	"fedprox/internal/comm"
	"fedprox/internal/core"
	"fedprox/internal/data"
	"fedprox/internal/model"
	"fedprox/internal/obs"
	"fedprox/internal/solver"
	"fedprox/internal/tensor"
)

// Worker is the transport shell around one core.Device: it registers the
// hosted shards, completes the codec negotiation, and translates
// TrainRequest/EvalRequest wire messages into the device runtime's
// HandleDispatch/HandleEval events. All device-side protocol — downlink
// decode and link state, the local solve with compute-budget truncation,
// the uplink encode, the eval receive chain — lives in the runtime,
// which is the same type the simulator drives in process, so worker
// behavior cannot drift from the simulator's. Raw examples never leave
// the worker.
type Worker struct {
	dev *core.Device

	// Offer restricts which update codecs this worker advertises in its
	// Hello; nil advertises every codec comm registers. The coordinator
	// aborts the session if its configured codec is not offered.
	Offer []string

	// PrecisionOffer restricts which arithmetic widths this worker
	// advertises; nil advertises every width the device runtime actually
	// supports (see core.Device.SupportsPrecision). Setting it models an
	// older or constrained worker — e.g. []string{"f64"} for a binary
	// predating the f32 path — and the coordinator aborts the session if
	// its configured precision is not offered.
	PrecisionOffer []string

	// trace mirrors DeviceOptions.Trace: the runtime emits the per-request
	// device events, the worker shell adds a worker-solve span around each
	// dispatch so the wall cost of the local solve (decode + SGD + encode)
	// is visible per device.
	trace obs.Sink
}

// NewWorker builds a worker hosting the given shards. A nil localSolver
// selects mini-batch SGD. The device runtime is seeded with raw links so
// a worker can also be driven directly in tests; Serve replaces them
// with the negotiated specs.
func NewWorker(mdl model.Model, shards []*data.Shard, localSolver solver.LocalSolver) *Worker {
	return NewWorkerWithOptions(mdl, shards, core.DeviceOptions{Solver: localSolver})
}

// NewWorkerWithOptions is NewWorker with the full set of client-side
// knobs — in particular DeviceOptions.Privacy, the only place
// update-level DP can be configured in a fednet deployment (the
// mechanism clips and noises solutions before the uplink encode, so it
// is worker state; the server config rejects it). TrackGamma is forced
// off: the wire protocol does not carry γ, so probing it on a worker
// would only waste a gradient pass per dispatch.
func NewWorkerWithOptions(mdl model.Model, shards []*data.Shard, opts core.DeviceOptions) *Worker {
	if mdl == nil || len(shards) == 0 {
		panic("fednet: worker needs a model and at least one shard")
	}
	opts.TrackGamma = false
	dev := core.NewDevice(mdl, shards, opts)
	raw := comm.Spec{Name: "raw"}.WithDefaults()
	if err := dev.InstallLinks(raw, raw); err != nil {
		panic(err) // the raw spec is statically valid
	}
	return &Worker{dev: dev, trace: opts.Trace}
}

// Run connects to the coordinator at addr, registers, and serves until
// the coordinator sends Shutdown or the connection drops.
func (w *Worker) Run(addr string) error {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("fednet: dial %s: %w", addr, err)
	}
	c := newConn(raw)
	defer c.close()
	return w.Serve(c)
}

// ServeConn serves an already-established connection (used by in-process
// tests and custom transports).
func (w *Worker) ServeConn(raw net.Conn) error {
	c := newConn(raw)
	defer c.close()
	return w.Serve(c)
}

// Serve registers over c, completes the codec negotiation, and processes
// requests until Shutdown.
func (w *Worker) Serve(c *conn) error {
	hello := Hello{Codecs: w.Offer}
	if hello.Codecs == nil {
		hello.Codecs = comm.Names()
	}
	// Offer exactly the widths this runtime can execute: "f32" appears
	// only when the model, solver, and privacy configuration complete the
	// float32 path, so the coordinator can never negotiate a precision
	// the device would have to refuse at link installation.
	hello.Precisions = w.PrecisionOffer
	if hello.Precisions == nil {
		for _, p := range tensor.Precisions() {
			if w.dev.SupportsPrecision(tensor.Precision(p)) {
				hello.Precisions = append(hello.Precisions, p)
			}
		}
	}
	for _, reg := range w.dev.Hosted() {
		hello.Devices = append(hello.Devices, DeviceInfo{ID: reg.ID, TrainSize: reg.TrainSize})
	}
	if err := c.send(Envelope{Hello: &hello}); err != nil {
		return err
	}
	env, err := c.recv()
	if err != nil {
		return err
	}
	welcome := env.Welcome
	if welcome == nil {
		return fmt.Errorf("fednet: expected Welcome, got %+v", env)
	}
	if welcome.Err != "" {
		return errors.New(welcome.Err)
	}
	// Honour our own offer: a coordinator (version-skewed or
	// misbehaving) must not be able to install a codec this worker
	// explicitly declined to advertise.
	for _, name := range []string{welcome.Downlink.Name, welcome.Uplink.Name} {
		if !slices.Contains(hello.Codecs, name) {
			return fmt.Errorf("fednet: coordinator selected codec %q, but this worker offered only %v", name, hello.Codecs)
		}
	}
	for _, p := range []tensor.Precision{welcome.Downlink.Precision, welcome.Uplink.Precision} {
		if !slices.Contains(hello.Precisions, p.String()) {
			return fmt.Errorf("fednet: coordinator selected precision %q, but this worker offered only %v", p.String(), hello.Precisions)
		}
	}
	if err := w.dev.InstallLinks(welcome.Downlink, welcome.Uplink); err != nil {
		return err
	}
	// A re-admission Welcome carries the eval chain's current base so
	// this worker decodes the next broadcast in lockstep with the
	// evaluators that never left.
	w.dev.SeedEvalPrev(welcome.EvalPrev)
	// Each TrainRequest is served in its own goroutine so an
	// asynchronous coordinator can pipeline work for several hosted
	// devices over one connection (it never has more than one request
	// outstanding per device, so per-device link state stays
	// single-owner). A send failure inside a handler means the
	// connection is broken; the serve loop's next recv surfaces it.
	var handlers sync.WaitGroup
	defer handlers.Wait()
	for {
		env, err := c.recv()
		if err != nil {
			return err
		}
		switch {
		case env.TrainRequest != nil:
			req := env.TrainRequest
			handlers.Add(1)
			go func() {
				defer handlers.Done()
				reply := w.train(req)
				_ = c.send(Envelope{TrainReply: &reply})
			}()
		case env.EvalRequest != nil:
			// Eval broadcasts are strictly sequential per deployment and
			// the eval link chains on their order: decode inline, then
			// compute metrics concurrently with any running solves.
			reply := w.eval(env.EvalRequest)
			if err := c.send(Envelope{EvalReply: &reply}); err != nil {
				return err
			}
		case env.Shutdown != nil:
			return nil
		default:
			return fmt.Errorf("fednet: worker received unexpected envelope %+v", env)
		}
	}
}

// train translates one TrainRequest into a device dispatch.
func (w *Worker) train(req *TrainRequest) TrainReply {
	defer obs.StartSpan(w.trace, obs.Event{Label: "worker-solve", Device: req.Device}).End()
	reply := TrainReply{Round: req.Round, Version: req.Version, Device: req.Device}
	r, err := w.dev.HandleDispatch(req.dispatch())
	if err != nil {
		reply.Err = err.Error()
		return reply
	}
	reply.Update = *r.Update
	reply.EpochsDone = r.EpochsDone
	return reply
}

// eval translates one EvalRequest into a device eval receive.
func (w *Worker) eval(req *EvalRequest) EvalReply {
	reply := EvalReply{Seq: req.Seq}
	r, err := w.dev.HandleEval(core.EvalRequest{Seq: req.Seq, Update: &req.Update})
	if err != nil {
		reply.Err = err.Error()
		return reply
	}
	reply.Devices = r.Devices
	return reply
}
