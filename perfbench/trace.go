package main

// The traced run measures each layer from outside the program: it wraps
// the interfaces the public entry points already accept (data.Fleet,
// solver.LocalSolver, model.Model, obs.Sink, net.Listener, net.Conn),
// keeps spans and counts in memory, and reduces them when the run ends.
// No code of the program under test is instrumented. Untraced runs keep
// only two of the wrappers, each costing a few operations per solve or
// per connection write: the solver's example count and the listener's
// registration stamp.

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fedprox/internal/data"
	"fedprox/internal/frand"
	"fedprox/internal/model"
	"fedprox/internal/obs"
	"fedprox/internal/solver"
	"fedprox/internal/tensor"
)

// span is a wall interval in nanoseconds since the tracer's start.
type span struct{ start, end int64 }

func (s span) dur() int64 { return s.end - s.start }

// stamped is one coordinator event with the wall time it was emitted.
type stamped struct {
	kind   obs.Kind
	folded bool // KindReply: the reply was folded
	lost   bool // KindReply: the reply was lost in transit
	at     int64
}

// tracer collects one traced run.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	solves []span // solver.LocalSolver.Solve / Solve32
	shards []span // data.Fleet.Shard
	reads  []span // fednet server-side conn reads
	events []stamped

	epochs                             atomic.Int64
	gradCalls, lossCalls, predictCalls atomic.Int64
	bytesRead, bytesWritten            atomic.Int64
	writeNs, workerIdleNs              atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

// at converts a wall time to the tracer's clock.
func (tr *tracer) at(t time.Time) int64 { return int64(t.Sub(tr.t0)) }

func (tr *tracer) record(list *[]span, start int64) {
	end := tr.now()
	tr.mu.Lock()
	*list = append(*list, span{start, end})
	tr.mu.Unlock()
}

// sink returns the obs.Sink for Config.Trace: it wall-stamps every event.
func (tr *tracer) sink() obs.Sink { return stampSink{tr} }

type stampSink struct{ tr *tracer }

func (s stampSink) Emit(e obs.Event) {
	ev := stamped{kind: e.Kind, at: s.tr.now()}
	if e.Kind == obs.KindReply {
		ev.folded = e.Disposition == "folded"
		ev.lost = e.Disposition == "drop-lost"
	}
	s.tr.mu.Lock()
	s.tr.events = append(s.tr.events, ev)
	s.tr.mu.Unlock()
}

// fleet wraps a data.Fleet, timing every shard materialization.
func (tr *tracer) fleet(fl data.Fleet) data.Fleet { return tracedFleet{fl, tr} }

type tracedFleet struct {
	data.Fleet
	tr *tracer
}

func (f tracedFleet) Shard(device int) *data.Shard {
	start := f.tr.now()
	s := f.Fleet.Shard(device)
	f.tr.record(&f.tr.shards, start)
	return s
}

// model wraps a model.Model, counting calls. A model.Model32 stays one:
// core.NewDevice refuses an f32 run whose model lost its float32 path.
func (tr *tracer) model(m model.Model) model.Model {
	t := tracedModel{m, tr}
	if m32, ok := m.(model.Model32); ok {
		return tracedModel32{t, m32}
	}
	return t
}

type tracedModel struct {
	model.Model
	tr *tracer
}

func (m tracedModel) Loss(w []float64, batch []data.Example) float64 {
	m.tr.lossCalls.Add(1)
	return m.Model.Loss(w, batch)
}

func (m tracedModel) Grad(dst, w []float64, batch []data.Example) float64 {
	m.tr.gradCalls.Add(1)
	return m.Model.Grad(dst, w, batch)
}

func (m tracedModel) Predict(w []float64, ex data.Example) int {
	m.tr.predictCalls.Add(1)
	return m.Model.Predict(w, ex)
}

type tracedModel32 struct {
	tracedModel
	m32 model.Model32
}

func (m tracedModel32) Grad32(dst, w tensor.Vec32, batch []data.Example) float32 {
	m.tr.gradCalls.Add(1)
	return m.m32.Grad32(dst, w, batch)
}

// probeSolver wraps a solver.LocalSolver on every run: it counts the
// examples each solve processes into examples (the work examples_per_s
// is measured in) and, when tr is set, times the solve. Name passes
// through so run labels do not change, and a solver.LocalSolver32 stays
// one for the same reason as in model.
func probeSolver(s solver.LocalSolver, examples *atomic.Int64, tr *tracer) solver.LocalSolver {
	p := solverProbe{s, examples, tr}
	if s32, ok := s.(solver.LocalSolver32); ok {
		return solverProbe32{p, s32}
	}
	return p
}

type solverProbe struct {
	inner    solver.LocalSolver
	examples *atomic.Int64
	tr       *tracer // nil on an untraced run
}

func (s solverProbe) Name() string { return s.inner.Name() }

func (s solverProbe) Solve(m model.Model, train []data.Example, w0 []float64, cfg solver.Config, epochs int, rng *frand.Source) []float64 {
	start := s.start()
	w := s.inner.Solve(m, train, w0, cfg, epochs, rng)
	s.solved(start, epochs, len(train))
	return w
}

func (s solverProbe) start() int64 {
	if s.tr == nil {
		return 0
	}
	return s.tr.now()
}

func (s solverProbe) solved(start int64, epochs, n int) {
	s.examples.Add(int64(epochs * n))
	if s.tr != nil {
		s.tr.record(&s.tr.solves, start)
		s.tr.epochs.Add(int64(epochs))
	}
}

type solverProbe32 struct {
	solverProbe
	s32 solver.LocalSolver32
}

func (s solverProbe32) Solve32(m model.Model32, train []data.Example, w0 tensor.Vec32, cfg solver.Config, epochs int, rng *frand.Source) tensor.Vec32 {
	start := s.start()
	w := s.s32.Solve32(m, train, w0, cfg, epochs, rng)
	s.solved(start, epochs, len(train))
	return w
}

// serverListener is the listener handed to fednet's RunWithListener. It
// always notes when each accepted connection is first written to — the
// Welcome that completes that worker's registration — and, on a traced
// run, times the server side's reads and writes.
type serverListener struct {
	net.Listener
	tr *tracer // nil on an untraced run

	mu      sync.Mutex
	lastReg time.Time
}

func (l *serverListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &serverConn{Conn: c, l: l}, nil
}

// registered returns when the last worker was welcomed.
func (l *serverListener) registered() time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastReg
}

type serverConn struct {
	net.Conn
	l     *serverListener
	wrote atomic.Bool
}

func (c *serverConn) Write(p []byte) (int, error) {
	if !c.wrote.Swap(true) {
		now := time.Now()
		c.l.mu.Lock()
		if now.After(c.l.lastReg) {
			c.l.lastReg = now
		}
		c.l.mu.Unlock()
	}
	tr := c.l.tr
	if tr == nil {
		return c.Conn.Write(p)
	}
	start := tr.now()
	n, err := c.Conn.Write(p)
	tr.writeNs.Add(tr.now() - start)
	tr.bytesWritten.Add(int64(n))
	return n, err
}

func (c *serverConn) Read(p []byte) (int, error) {
	tr := c.l.tr
	if tr == nil {
		return c.Conn.Read(p)
	}
	start := tr.now()
	n, err := c.Conn.Read(p)
	tr.record(&tr.reads, start)
	tr.bytesRead.Add(int64(n))
	return n, err
}

// workerConn is a worker's dialed connection on a traced run: time
// blocked in Read is the worker's idle time.
type workerConn struct {
	net.Conn
	tr *tracer
}

func (c *workerConn) Read(p []byte) (int, error) {
	start := c.tr.now()
	n, err := c.Conn.Read(p)
	c.tr.workerIdleNs.Add(c.tr.now() - start)
	return n, err
}

func (c *workerConn) Write(p []byte) (int, error) {
	start := c.tr.now()
	n, err := c.Conn.Write(p)
	c.tr.writeNs.Add(c.tr.now() - start)
	return n, err
}
