package fednet

import (
	"errors"
	"fmt"
	"net"
	"time"

	"fedprox/internal/core"
	"fedprox/internal/obs"
)

// This file drives the coordinator's asynchronous aggregation modes
// (core.AsyncTotal, core.Buffered) over real connections. Where the
// synchronous protocol runs lock-step rounds — every round as slow as
// its slowest contacted worker, the exact failure mode FedProx targets —
// the asynchronous schedule keeps MaxInFlight devices training at all
// times and folds replies into a version-stamped global model as they
// arrive, damping each contribution by its staleness alpha/(1+s)^p.
//
// All of that logic lives in core.Coordinator, and the command loop is
// core.Drive's; asyncDriver is only the transport. Per-conn reader
// goroutines route interleaved replies to it; RequestTimeout and
// connection errors become WorkerLost events (the worker's devices are
// evicted and its in-flight work charged as waste, while aggregation
// continues on the survivors); and Dispatch/Evaluate commands become
// pipelined TrainRequests and broadcast EvalRequests.
//
// Failure is a round trip, not a one-way door: the listener keeps
// accepting for the whole run, so an evicted worker can reconnect. Its
// Hello is re-validated (same devices, same sizes, codec offer) and the
// coordinator re-admits the devices with reset link state on both
// endpoints — the re-admission Welcome carries the shared eval chain's
// current base so the rejoining worker decodes the next evaluation
// broadcast in lockstep.
//
// The asynchronous modes trade the sync path's bit-reproducibility for
// liveness: arrival order is real-time nondeterminism. The simulator
// executes the same coordinator against the internal/vtime virtual
// clock instead, where the trajectory is bit-reproducible.

// asyncMsg is what a per-conn reader delivers to the aggregator: one
// received envelope, or the receive error that ended the reader.
type asyncMsg struct {
	c   *conn
	env Envelope
	err error
}

// regMsg is a mid-run registration attempt from a reconnecting worker.
type regMsg struct {
	c     *conn
	hello *Hello
}

// connState is the aggregator's bookkeeping for one worker connection.
type connState struct {
	c       *conn
	devices []int
	dead    bool
}

// asyncDriver is the asynchronous runs' core.Transport: it owns the
// connections' reader goroutines, the re-admission accept loop, and the
// commands the coordinator emitted for transport events (worker losses,
// re-admissions) until Drive collects them from Wait.
type asyncDriver struct {
	s        *Server
	ln       net.Listener
	conns    map[*conn]*connState
	inflight map[int]time.Time // device -> dispatch time, for timeouts
	replyCh  chan asyncMsg
	regCh    chan regMsg
	done     chan struct{}
	stash    []asyncMsg
	cmds     []core.Command
}

// startAsync starts the transport of an asynchronous run. The listener
// stays open so evicted workers can reconnect; stop closes it.
func (s *Server) startAsync(ln net.Listener) *asyncDriver {
	d := &asyncDriver{
		s:        s,
		ln:       ln,
		conns:    make(map[*conn]*connState, len(s.conns)),
		inflight: make(map[int]time.Time),
		replyCh:  make(chan asyncMsg, len(s.conns)+64),
		regCh:    make(chan regMsg, 4),
		done:     make(chan struct{}),
	}
	for _, c := range s.conns {
		d.conns[c] = &connState{c: c}
	}
	for id, dev := range s.devices {
		d.conns[dev.conn].devices = append(d.conns[dev.conn].devices, id)
	}
	for _, c := range s.conns {
		d.startReader(c)
	}
	go d.acceptLoop(ln)
	return d
}

// stop ends the re-admission accept loop and releases the readers.
func (d *asyncDriver) stop() {
	_ = d.ln.Close()
	close(d.done)
}

// deliver queues the commands a coordinator event emitted for Wait.
func (d *asyncDriver) deliver(cmds []core.Command, err error) error {
	d.cmds = append(d.cmds, cmds...)
	return err
}

// startReader routes every inbound envelope of one connection (train and
// eval replies interleaved) to the aggregator. done unblocks readers
// once the aggregator returns; the deferred shutdown in RunWithListener
// closes the conns, which unblocks any reader still parked in recv.
func (d *asyncDriver) startReader(c *conn) {
	go func() {
		for {
			env, err := c.recv()
			select {
			case d.replyCh <- asyncMsg{c: c, env: env, err: err}:
			case <-d.done:
				return
			}
			if err != nil {
				return
			}
		}
	}()
}

// acceptLoop admits reconnecting workers for the whole run: each
// accepted connection gets a handshake goroutine (so a rogue connection
// that never sends a Hello cannot block further accepts) whose Hello is
// handed to the aggregator for validation and re-admission.
func (d *asyncDriver) acceptLoop(ln net.Listener) {
	for {
		raw, err := ln.Accept()
		if err != nil {
			return // listener closed: run over
		}
		c := d.s.newMeteredConn(raw)
		go func() {
			// The Hello read is deadline-bounded: a connection that never
			// registers must release its goroutine and socket instead of
			// leaking for the life of the process.
			handshake := d.s.cfg.RequestTimeout
			if handshake <= 0 {
				handshake = 30 * time.Second
			}
			c.armRecvDeadline(handshake)
			env, err := c.recv()
			c.armRecvDeadline(0)
			if err != nil || env.Hello == nil {
				_ = c.close()
				return
			}
			select {
			case d.regCh <- regMsg{c: c, hello: env.Hello}:
			case <-d.done:
				_ = c.close()
			}
		}()
	}
}

// Send ships one TrainRequest per dispatch. A send failure means the
// worker is gone: its devices are evicted (the coordinator charges the
// in-flight work as waste) and aggregation continues.
func (d *asyncDriver) Send(ds []core.Dispatch) ([]core.Reply, error) {
	for _, v := range ds {
		cs := d.conns[d.s.devices[v.Device].conn]
		if cs.dead {
			if err := d.deliver(d.s.coord.WorkerLost([]int{v.Device})); err != nil {
				return nil, err
			}
			continue
		}
		if err := cs.c.send(Envelope{TrainRequest: newTrainRequest(v)}); err != nil {
			if err := d.failConn(cs); err != nil {
				return nil, err
			}
			continue
		}
		// Only a confirmed send is billed as traffic and device work.
		d.s.coord.DispatchSent(v.Device)
		d.inflight[v.Device] = time.Now()
	}
	return nil, nil
}

// Wait hands Drive the commands transport events already produced, or
// blocks for the next event.
func (d *asyncDriver) Wait() ([]core.Command, bool, error) {
	if len(d.cmds) == 0 {
		if err := d.waitEvent(); err != nil {
			return nil, true, err
		}
	}
	cmds := d.cmds
	d.cmds = nil
	return cmds, true, nil
}

// failConn evicts a connection: closes it, clears its devices' in-flight
// bookkeeping, and reports the loss to the coordinator.
func (d *asyncDriver) failConn(cs *connState) error {
	if cs.dead {
		return nil
	}
	cs.dead = true
	_ = cs.c.close()
	for _, id := range cs.devices {
		delete(d.inflight, id)
	}
	if err := d.deliver(d.s.coord.WorkerLost(cs.devices)); err != nil {
		return fmt.Errorf("fednet: async %w", err)
	}
	return nil
}

// waitEvent blocks for the next transport event (a stashed message, a
// reply, a re-registration, or a timeout) and delivers it to the
// coordinator.
func (d *asyncDriver) waitEvent() error {
	s := d.s
	var m asyncMsg
	if len(d.stash) > 0 {
		m, d.stash = d.stash[0], d.stash[1:]
	} else {
		var timeout <-chan time.Time
		if s.cfg.RequestTimeout > 0 && len(d.inflight) > 0 {
			earliest := time.Time{}
			for _, at := range d.inflight {
				dl := at.Add(s.cfg.RequestTimeout)
				if earliest.IsZero() || dl.Before(earliest) {
					earliest = dl
				}
			}
			timeout = time.After(time.Until(earliest))
		}
		select {
		case m = <-d.replyCh:
		case reg := <-d.regCh:
			return d.admit(reg)
		case <-timeout:
			now := time.Now()
			for id, at := range d.inflight {
				if now.Sub(at) >= s.cfg.RequestTimeout {
					if err := d.failConn(d.conns[s.devices[id].conn]); err != nil {
						return err
					}
				}
			}
			return nil
		}
	}

	cs := d.conns[m.c]
	switch {
	case m.err != nil:
		return d.failConn(cs)
	case cs.dead:
		// A message queued by a reader before its connection was evicted.
		// It must not be delivered: after a re-admission the device may
		// have a fresh in-flight dispatch, and the stale reply would
		// alias it (decoding old bytes against the new dispatch's view).
		return nil
	case m.env.TrainReply != nil:
		reply := m.env.TrainReply
		if _, ok := d.inflight[reply.Device]; !ok {
			return nil // an evicted worker's late reply: drop
		}
		delete(d.inflight, reply.Device)
		r, err := reply.coreReply()
		if err != nil {
			return err
		}
		return d.deliver(s.coord.HandleReply(r))
	case m.env.EvalReply != nil:
		// A late eval reply from a conn that timed out during a previous
		// evaluation: drop it.
		return nil
	default:
		return fmt.Errorf("fednet: async coordinator received unexpected envelope %+v", m.env)
	}
}

// admit processes a mid-run registration: the codec offer and the device
// roster are validated (the coordinator refuses unknown devices,
// still-live devices, and changed shard sizes without disturbing the
// run), link state is reset on the coordinator's side, and the Welcome
// ships the eval chain base so the worker's fresh endpoint decodes in
// lockstep. A rejected worker gets a Welcome.Err and the run continues.
func (d *asyncDriver) admit(reg regMsg) error {
	s := d.s
	if msg := s.codecOfferError(reg.hello); msg != "" {
		_ = reg.c.send(Envelope{Welcome: &Welcome{Err: msg}})
		_ = reg.c.close()
		return nil
	}
	regs := make([]core.DeviceReg, 0, len(reg.hello.Devices))
	ids := make([]int, 0, len(reg.hello.Devices))
	for _, dev := range reg.hello.Devices {
		regs = append(regs, core.DeviceReg{ID: dev.ID, TrainSize: dev.TrainSize})
		ids = append(ids, dev.ID)
	}
	cmds, err := s.coord.RegisterWorker(regs)
	if err != nil {
		// Validation refusal (unknown device, still-live device, size
		// mismatch): reject this worker, keep the run alive.
		_ = reg.c.send(Envelope{Welcome: &Welcome{Err: err.Error()}})
		_ = reg.c.close()
		return nil
	}
	d.cmds = append(d.cmds, cmds...)
	welcome := &Welcome{Downlink: s.downSpec, Uplink: s.upSpec, EvalPrev: s.coord.EvalResyncState()}
	if err := reg.c.send(Envelope{Welcome: welcome}); err != nil {
		// Admitted but unreachable: evict again immediately.
		_ = reg.c.close()
		if err := d.deliver(s.coord.WorkerLost(ids)); err != nil {
			return fmt.Errorf("fednet: async %w", err)
		}
		return nil
	}
	cs := &connState{c: reg.c, devices: ids}
	d.conns[reg.c] = cs
	s.conns = append(s.conns, reg.c) // shutdownWorkers releases it at run end
	for _, id := range ids {
		s.devices[id].conn = reg.c
	}
	d.startReader(reg.c)
	s.emit(obs.Event{Kind: obs.KindWorkerJoin, N: len(ids)})
	return nil
}

// Evaluate runs one evaluation broadcast over the live conns, stashing
// any train replies that arrive meanwhile for waitEvent to process
// afterwards. Connections that fail mid-evaluation are evicted; the
// metrics are renormalized over the devices that reported.
func (d *asyncDriver) Evaluate(v core.Evaluate) (core.EvalResult, error) {
	s := d.s
	defer obs.StartSpan(s.trace, obs.Event{Label: "fednet-eval", Device: -1}).End()
	waiting := make(map[*conn]bool)
	for _, cs := range d.conns {
		if cs.dead {
			continue
		}
		if err := cs.c.send(Envelope{EvalRequest: &EvalRequest{Seq: v.Seq, Update: *v.Update}}); err != nil {
			if err := d.failConn(cs); err != nil {
				return core.EvalResult{}, err
			}
			continue
		}
		waiting[cs.c] = true
	}
	if len(waiting) == 0 {
		return core.EvalResult{}, errors.New("fednet: no live workers to evaluate on")
	}
	var all []DeviceEval
	deadline := time.Now().Add(s.cfg.RequestTimeout)
	for len(waiting) > 0 {
		var timeout <-chan time.Time
		if s.cfg.RequestTimeout > 0 {
			timeout = time.After(time.Until(deadline))
		}
		var err error
		select {
		case m := <-d.replyCh:
			cs := d.conns[m.c]
			switch {
			case m.err != nil:
				delete(waiting, m.c)
				err = d.failConn(cs)
			case m.env.EvalReply != nil:
				delete(waiting, m.c)
				if m.env.EvalReply.Err != "" {
					err = errors.New(m.env.EvalReply.Err)
				} else if !cs.dead {
					all = append(all, m.env.EvalReply.Devices...)
				}
			default:
				d.stash = append(d.stash, m)
			}
		case <-timeout:
			for c := range waiting {
				delete(waiting, c)
				if err = d.failConn(d.conns[c]); err != nil {
					break
				}
			}
		}
		if err != nil {
			return core.EvalResult{}, err
		}
	}
	if len(all) == 0 {
		return core.EvalResult{}, errors.New("fednet: evaluation returned no device metrics")
	}
	loss, acc := combineEvals(all, s.weights, true)
	res := core.EvalResult{Loss: loss, Acc: acc}
	res.WireUplinkBytes, res.WireDownlinkBytes = s.BytesOnWire()
	return res, nil
}
