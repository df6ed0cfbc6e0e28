package core

// This file is the in-process transport's virtual-time arrival queue,
// which runs the asynchronous aggregation modes (AsyncTotal, Buffered)
// on the internal/vtime clock. Every protocol decision — device choice,
// staleness damping, milestone cadence, the deadline and byte-budget
// policies — happens in the coordinator, and the command loop is
// Drive's; the queue only turns Dispatch commands into local solves
// whose replies arrive on the seeded event queue in latency order.
//
// What the fednet runtime buys with wall-clock liveness the simulator
// buys back as reproducibility: the same seed always yields the same
// History, bit for bit, because arrival order is decided by the seeded
// latency model and the queue's (time, seq) tiebreak — never by
// goroutine scheduling. Both executors feed the identical coordinator,
// so their trajectories coincide by construction.
//
// Solves run on the bounded worker pool synchronous rounds share
// (Config.Parallelism goroutines), underneath the event queue. This cannot perturb the trajectory
// because a reply's arrival time is a pure function of the dispatch: the
// compute leg charges the epochs the device will deterministically run
// (the dispatch's budget truncation) and the uplink leg charges the
// codec's data-independent wire size (comm.Spec.WireSize) — so arrivals
// are scheduled before the solve finishes, the solve result is joined
// only when its arrival event fires, and folds still apply in the
// queue's (time, seq) order. Per-device codec state stays single-owner:
// the at-most-one-outstanding-dispatch-per-device invariant means a
// device is redispatched only after its previous reply was folded,
// which happens only after its solve was joined.

import (
	"fmt"
	"runtime"
	"sync"
)

// solveFuture is one in-flight local solve, joined by its arrival event
// or, in a synchronous round, by serveNow.
type solveFuture struct {
	done chan struct{}
	r    Reply
	err  error
}

func (f *solveFuture) wait() (Reply, error) {
	<-f.done
	return f.r, f.err
}

// solvePool runs device solves on a fixed set of worker goroutines
// (workers <= 0 means GOMAXPROCS). Submission never blocks the event
// loop: the backlog is sized to the maximum number of in-flight
// dispatches.
type solvePool struct {
	work chan func()
	wg   sync.WaitGroup
}

func newSolvePool(workers, inFlight int) *solvePool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &solvePool{work: make(chan func(), inFlight+workers)}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for fn := range p.work {
				fn()
			}
		}()
	}
	return p
}

func (p *solvePool) submit(fn func() (Reply, error)) *solveFuture {
	f := &solveFuture{done: make(chan struct{})}
	p.work <- func() {
		f.r, f.err = fn()
		close(f.done)
	}
	return f
}

// close stops the workers after draining queued solves.
func (p *solvePool) close() {
	close(p.work)
	p.wg.Wait()
}

// enqueue ships asynchronous dispatches: each local solve is handed to
// the pool — the simulator will know the answer before it is due — and
// the reply's arrival is scheduled immediately from the dispatch alone.
// In-process shipping cannot fail, so the transfer is confirmed at
// once. The compute leg charges the epochs the device will actually
// run: the budget truncation is deterministic device-side arithmetic,
// mirrored here.
func (t *simTransport) enqueue(ds []Dispatch) {
	lat := t.vt.lat
	for _, v := range ds {
		t.vt.coord.DispatchSent(v.Device)
		epochs := expectedEpochs(v.EpochBudget, v.Epochs)
		fut := t.pool.submit(func() (Reply, error) { return t.dev.HandleDispatch(v) })
		sent := t.vt.eng.Now()
		arrive := sent +
			lat.DownlinkSeconds(v.Seq, v.Device, v.DownBytes) +
			lat.ComputeSeconds(v.Seq, v.Device, epochs) +
			lat.UplinkSeconds(v.Seq, v.Device, t.predictedUp)
		// Stamp the reply's own latency: the deadline policy must judge
		// it, not the clock delta at arrival (an eval charge can overtake
		// the scheduled arrival time).
		rel := arrive - sent
		lost := lat.Dropped(v.Seq, v.Device)
		t.vt.at(arrive, func() ([]Command, error) {
			r, err := fut.wait()
			if err != nil {
				return nil, err
			}
			if up := t.vt.uplinkBytes(r); r.EpochsDone != epochs || up != t.predictedUp {
				return nil, fmt.Errorf("core: vtime arrival charged %d epochs/%d uplink bytes but device %d realized %d/%d",
					epochs, t.predictedUp, r.Device, r.EpochsDone, up)
			}
			r.Timed, r.Seq, r.Rel, r.Lost = true, v.Seq, rel, lost
			return t.vt.coord.HandleReply(r)
		})
	}
}
