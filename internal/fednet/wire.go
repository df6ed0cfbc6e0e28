// Package fednet runs FedProx over real network connections: a
// coordinator (Server) that owns only the global model, and workers that
// own the data — the deployment shape federated learning actually has,
// where raw examples never leave the device.
//
// The protocol is length-unframed gob over TCP. Each worker registers the
// devices (shards) it hosts and the update codecs it supports; the
// coordinator answers with a Welcome carrying the codec specs the
// deployment will use (negotiated at Hello time). Every round the
// coordinator selects devices, ships the encoded global parameters with
// the round's subproblem hyperparameters and a batch-order seed, and
// aggregates the decoded returned models. Evaluation is also distributed:
// workers report per-device loss and accuracy sums and the coordinator
// combines them, so the server never touches data.
//
// The environment streams (selection, stragglers, batch order, init)
// come from the shared core.Coordinator — this package is a transport
// driver, not a protocol implementation — so a fednet run with the same
// seed and configuration reproduces the simulator's trajectory bit for
// bit by construction (asserted in fednet_test.go).
//
// Aggregation disciplines: under the default synchronous protocol the
// coordinator keeps at most one exchange outstanding per connection
// (strict request/response). Under core.AsyncTotal / core.Buffered it
// pipelines TrainRequests — several may be outstanding on one
// connection, though never more than one per device — and a per-conn
// reader routes the interleaved replies. Workers therefore serve every
// TrainRequest in its own goroutine; replies carry the model-version
// stamp of the broadcast they trained from so the coordinator can damp
// stale contributions.
package fednet

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fedprox/internal/comm"
	"fedprox/internal/core"
)

// DeviceInfo describes one shard a worker hosts.
type DeviceInfo struct {
	// ID is the global device index (shard ID).
	ID int
	// TrainSize is n_k, used for sampling weights and aggregation.
	TrainSize int
}

// Hello is the worker's registration message.
type Hello struct {
	// Devices lists every shard this worker hosts.
	Devices []DeviceInfo
	// Codecs lists the update codecs this worker supports. The
	// coordinator refuses the deployment (via Welcome.Err) if its
	// configured codec is not offered. An empty list offers only "raw".
	Codecs []string
	// Precisions lists the arithmetic widths this worker can execute
	// ("f64", "f32"). The coordinator refuses the deployment if its
	// configured precision is not offered. An empty list offers only
	// "f64" — the pre-precision wire vocabulary, so old workers remain
	// compatible with full-width deployments.
	Precisions []string
}

// Welcome is the coordinator's reply to a Hello: the codec negotiation
// result every endpoint must honour for the rest of the session.
type Welcome struct {
	// Downlink and Uplink are the resolved per-direction codec specs
	// (seed included), shared so worker-side streams match the
	// coordinator's and the simulator's.
	Downlink comm.Spec
	Uplink   comm.Spec
	// EvalPrev, when non-nil, is the shared evaluation link's current
	// chain base. A worker re-admitted mid-run (asynchronous deployments
	// accept reconnects) seeds its eval link with it so the next chained
	// eval broadcast decodes in lockstep; workers joining at round 0
	// receive nil.
	EvalPrev []float64
	// Err, when non-empty, aborts the session (e.g. codec not offered).
	Err string
}

// TrainRequest asks a worker to run one local solve.
type TrainRequest struct {
	// Round is the communication round index. Under asynchronous
	// aggregation it is the model-version milestone in effect at
	// dispatch (versions elapsed / versions-per-round).
	Round int
	// Version stamps the global model version the broadcast was encoded
	// at. The asynchronous coordinator computes each reply's staleness as
	// the difference between its current version and this stamp; the
	// synchronous coordinator stamps the round index (one version per
	// round).
	Version int
	// Device is the shard to train on.
	Device int
	// Update is the encoded broadcast global model wᵗ for this device's
	// downlink, decoded against the device's last decoded broadcast.
	Update comm.Update
	// Epochs is the device's epoch target for this round.
	Epochs int
	// EpochBudget is the device-side compute budget in epochs (0 =
	// unlimited): the worker's device runtime truncates its solve to
	// min(Epochs, EpochBudget) and reports the realized work in
	// TrainReply.EpochsDone (core.Config.DeviceBudget).
	EpochBudget int
	// Mu, LearningRate, BatchSize parameterize the local subproblem.
	Mu           float64
	LearningRate float64
	BatchSize    int
	// BatchSeed is the state of the device's batch-order stream.
	BatchSeed uint64
	// PrivacyTag seeds the device-side DP noise stream for this
	// dispatch: the round (synchronous) or the dispatch sequence
	// (asynchronous). Without it a worker's mechanism would reuse one
	// noise vector every round, letting an observer difference two
	// uplinks to cancel the noise exactly.
	PrivacyTag int
}

// TrainReply returns the local solution.
type TrainReply struct {
	Round int
	// Version echoes TrainRequest.Version: the model version the local
	// solve started from.
	Version int
	Device  int
	// Update is the encoded local solution for the device's uplink,
	// decoded against the broadcast view the device trained from.
	Update comm.Update
	// EpochsDone is the local epochs the device actually ran — less
	// than Epochs when TrainRequest.EpochBudget truncated the solve.
	EpochsDone int
	// Err carries a worker-side failure description ("" on success).
	Err string
}

// newTrainRequest is the wire form of a coordinator dispatch — the one
// mapping every coordinator-side transport (sync, async, edge) ships.
func newTrainRequest(d core.Dispatch) *TrainRequest {
	return &TrainRequest{
		Round:        d.Round,
		Version:      d.Version,
		Device:       d.Device,
		Update:       *d.Update,
		Epochs:       d.Epochs,
		EpochBudget:  d.EpochBudget,
		Mu:           d.Mu,
		LearningRate: d.LearningRate,
		BatchSize:    d.BatchSize,
		BatchSeed:    d.BatchSeed,
		PrivacyTag:   d.PrivacyTag,
	}
}

// dispatch is the inverse of newTrainRequest: the device runtime's view
// of a received request.
func (req *TrainRequest) dispatch() core.Dispatch {
	return core.Dispatch{
		Round:        req.Round,
		Version:      req.Version,
		Device:       req.Device,
		Epochs:       req.Epochs,
		EpochBudget:  req.EpochBudget,
		Mu:           req.Mu,
		LearningRate: req.LearningRate,
		BatchSize:    req.BatchSize,
		BatchSeed:    req.BatchSeed,
		PrivacyTag:   req.PrivacyTag,
		Update:       &req.Update,
	}
}

// coreReply converts a received TrainReply into the coordinator's reply
// event, surfacing a worker-reported failure as an error.
func (r *TrainReply) coreReply() (core.Reply, error) {
	if r.Err != "" {
		return core.Reply{}, errors.New(r.Err)
	}
	return core.Reply{Device: r.Device, Update: &r.Update, EpochsDone: r.EpochsDone}, nil
}

// EvalRequest asks a worker to evaluate the global model on every shard
// it hosts. The parameters travel encoded on the deployment's shared
// eval link (downlink codec, direction comm.Eval): every worker decodes
// the same chained stream, so all evaluators hold the identical view —
// and so does the simulator under the same seed.
type EvalRequest struct {
	// Seq matches replies to requests. Eval broadcasts are strictly
	// sequential per deployment; the chained eval link depends on it.
	Seq int
	// Update is the encoded global model on the shared eval link.
	Update comm.Update
}

// DeviceEval is one shard's contribution to the global metrics — the
// core device runtime's type, shared so the wire and the runtime cannot
// disagree on what an evaluation reports.
type DeviceEval = core.DeviceEval

// EvalReply returns per-device metric contributions.
type EvalReply struct {
	Seq     int
	Devices []DeviceEval
	Err     string
}

// Shutdown tells a worker to exit its serve loop.
type Shutdown struct{}

// Envelope is the single wire type; exactly one field is non-nil.
type Envelope struct {
	Hello        *Hello
	Welcome      *Welcome
	TrainRequest *TrainRequest
	TrainReply   *TrainReply
	EvalRequest  *EvalRequest
	EvalReply    *EvalReply
	Shutdown     *Shutdown
}

// meteredConn counts the raw bytes crossing a net.Conn, so the
// coordinator can report actual serialized wire traffic (gob framing and
// evaluation messages included) alongside the codecs' analytic
// accounting.
type meteredConn struct {
	net.Conn
	read, written *atomic.Int64
}

func (m meteredConn) Read(p []byte) (int, error) {
	n, err := m.Conn.Read(p)
	m.read.Add(int64(n))
	return n, err
}

func (m meteredConn) Write(p []byte) (int, error) {
	n, err := m.Conn.Write(p)
	m.written.Add(int64(n))
	return n, err
}

// conn wraps a net.Conn with gob codecs and two locks: mu guards the
// encoder for interleaved sends, and rtMu serializes whole
// request/response exchanges so multiple device goroutines can share one
// worker connection. sendTimeout, when positive, bounds each send —
// without it a peer that stops reading (full TCP buffers) would block
// the sender in gob Encode forever.
type conn struct {
	raw         net.Conn
	enc         *gob.Encoder
	dec         *gob.Decoder
	sendTimeout time.Duration
	mu          sync.Mutex // guards enc
	rtMu        sync.Mutex // serializes request/response round-trips
}

func newConn(raw net.Conn) *conn {
	return &conn{raw: raw, enc: gob.NewEncoder(raw), dec: gob.NewDecoder(raw)}
}

func (c *conn) send(e Envelope) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sendTimeout > 0 {
		_ = c.raw.SetWriteDeadline(time.Now().Add(c.sendTimeout))
		defer c.raw.SetWriteDeadline(time.Time{})
	}
	if err := c.enc.Encode(&e); err != nil {
		return fmt.Errorf("fednet: send: %w", err)
	}
	return nil
}

// recv decodes the next envelope. Callers own sequencing: the protocol is
// strictly request/response per connection from the coordinator's side.
func (c *conn) recv() (Envelope, error) {
	var e Envelope
	if err := c.dec.Decode(&e); err != nil {
		return Envelope{}, fmt.Errorf("fednet: recv: %w", err)
	}
	return e, nil
}

// armRecvDeadline sets (d > 0) or clears (d <= 0) the connection's read
// deadline — the coordinator's guard against workers that never reply.
func (c *conn) armRecvDeadline(d time.Duration) {
	if d <= 0 {
		_ = c.raw.SetReadDeadline(time.Time{})
		return
	}
	_ = c.raw.SetReadDeadline(time.Now().Add(d))
}

func (c *conn) close() error { return c.raw.Close() }
