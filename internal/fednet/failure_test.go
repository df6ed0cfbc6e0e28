package fednet

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"fedprox/internal/core"
	"fedprox/internal/data"
	"fedprox/internal/frand"
	"fedprox/internal/model"
	"fedprox/internal/solver"
)

// stubWorker registers shards like a real worker, then misbehaves:
// depending on mode it disconnects right after registration, or accepts
// every request and never replies. It exercises the coordinator's
// failure paths without cooperating in them.
type stubMode int

const (
	stubDisconnect stubMode = iota // close the conn after the first TrainRequest arrives
	stubSilent                     // read requests forever, never reply
)

func runStubWorker(t *testing.T, addr string, shards []*data.Shard, mode stubMode) {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Errorf("stub worker dial: %v", err)
		return
	}
	c := newConn(raw)
	defer c.close()
	hello := Hello{}
	for _, s := range shards {
		hello.Devices = append(hello.Devices, DeviceInfo{ID: s.ID, TrainSize: len(s.Train)})
	}
	if err := c.send(Envelope{Hello: &hello}); err != nil {
		t.Errorf("stub worker hello: %v", err)
		return
	}
	if _, err := c.recv(); err != nil { // Welcome
		t.Errorf("stub worker welcome: %v", err)
		return
	}
	for {
		env, err := c.recv()
		if err != nil {
			return // coordinator gave up on us
		}
		switch {
		case env.TrainRequest != nil:
			if mode == stubDisconnect {
				return // deferred close: vanish mid-round
			}
			// stubSilent: swallow the request.
		case env.EvalRequest != nil:
			// Both stubs answer evals so the run reaches the training
			// phase before the failure bites.
			reply := EvalReply{Seq: env.EvalRequest.Seq}
			for _, s := range shards {
				reply.Devices = append(reply.Devices, DeviceEval{Device: s.ID, TrainN: len(s.Train), TestN: len(s.Test)})
			}
			if mode == stubSilent && env.EvalRequest.Seq > 1 {
				continue // after round 0 the silent stub goes fully dark
			}
			if err := c.send(Envelope{EvalReply: &reply}); err != nil {
				return
			}
		case env.Shutdown != nil:
			return
		}
	}
}

// splitShards partitions the dataset round-robin over n workers.
func splitShards(fed *data.Federated, n int) [][]*data.Shard {
	out := make([][]*data.Shard, n)
	for k := 0; k < fed.NumDevices(); k++ {
		out[k%n] = append(out[k%n], fed.Shards[k])
	}
	return out
}

// launchWithStub runs a deployment where worker 0 is a misbehaving stub
// and the rest are real. It returns the coordinator's error and whether
// the real workers all returned (none left hanging).
func launchWithStub(t *testing.T, cfg core.Config, timeout time.Duration, mode stubMode) error {
	t.Helper()
	fed, mdl := testWorkload()
	srv, err := NewServer(mdl, ServerConfig{Training: cfg, ExpectDevices: fed.NumDevices(), RequestTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	parts := splitShards(fed, 3)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { defer wg.Done(); runStubWorker(t, addr, parts[0], mode) }()
	for wi := 1; wi < 3; wi++ {
		w := NewWorker(mdl, parts[wi], nil)
		go func() { defer wg.Done(); _ = w.Run(addr) }()
	}

	_, runErr := srv.RunWithListener(ln)

	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("workers still blocked after the coordinator returned")
	}
	return runErr
}

func syncCfg() core.Config {
	cfg := core.FedProx(4, 6, 2, 0.01, 1)
	cfg.EvalEvery = 2
	return cfg
}

func asyncCfg() core.Config {
	cfg := syncCfg()
	cfg.Async = core.AsyncConfig{Mode: core.AsyncTotal}
	return cfg
}

// TestSyncWorkerDisconnectFailsRound: a worker that vanishes mid-round
// fails the synchronous run promptly (the protocol cannot continue
// without its devices) and releases every other worker via Shutdown.
func TestSyncWorkerDisconnectFailsRound(t *testing.T) {
	if err := launchWithStub(t, syncCfg(), 0, stubDisconnect); err == nil {
		t.Fatal("sync coordinator survived a mid-round disconnect")
	}
}

// TestSyncWorkerTimeoutFailsRound: a worker that accepts requests but
// never replies trips RequestTimeout instead of hanging the deployment.
func TestSyncWorkerTimeoutFailsRound(t *testing.T) {
	start := time.Now()
	err := launchWithStub(t, syncCfg(), 300*time.Millisecond, stubSilent)
	if err == nil {
		t.Fatal("sync coordinator survived a silent worker")
	}
	if elapsed := time.Since(start); elapsed > 8*time.Second {
		t.Fatalf("timeout took %v — deadline not applied", elapsed)
	}
}

// TestAsyncWorkerDisconnectEvicted: the asynchronous coordinator treats
// a mid-round disconnect as device loss, not run failure — it finishes
// the schedule on the surviving workers.
func TestAsyncWorkerDisconnectEvicted(t *testing.T) {
	if err := launchWithStub(t, asyncCfg(), 0, stubDisconnect); err != nil {
		t.Fatalf("async coordinator did not survive a disconnect: %v", err)
	}
}

// TestAsyncWorkerTimeoutEvicted: same for a silent worker, via
// RequestTimeout.
func TestAsyncWorkerTimeoutEvicted(t *testing.T) {
	if err := launchWithStub(t, asyncCfg(), 300*time.Millisecond, stubSilent); err != nil {
		t.Fatalf("async coordinator did not survive a silent worker: %v", err)
	}
}

// TestShutdownReleasesWorkers: a successful run (either mode) must end
// with every worker's Run returning nil — the Shutdown handshake, not a
// dropped connection.
func TestShutdownReleasesWorkers(t *testing.T) {
	fed, mdl := testWorkload()
	for _, cfg := range []core.Config{syncCfg(), asyncCfg()} {
		hist, err := launch(t, fed, mdl, cfg, 3) // launch fails the test on worker errors
		if err != nil {
			t.Fatalf("%s: %v", core.Label(cfg), err)
		}
		if len(hist.Points) == 0 {
			t.Fatalf("%s: empty history", core.Label(cfg))
		}
	}
}

// shortSolver is a faulty worker-side solver: its solution is one
// coordinate short of the model.
type shortSolver struct{}

func (shortSolver) Name() string { return "sgd" }

func (shortSolver) Solve(_ model.Model, _ []data.Example, w0 []float64, _ solver.Config, _ int, _ *frand.Source) []float64 {
	return append([]float64(nil), w0[:len(w0)-1]...)
}

// TestWrongLengthReplyFailsRun: a worker whose update has the wrong
// dimension fails the run with an error naming the device and both
// lengths, in both aggregation disciplines — it never panics the
// coordinator.
func TestWrongLengthReplyFailsRun(t *testing.T) {
	fed, mdl := testWorkload()
	for _, cfg := range []core.Config{syncCfg(), asyncCfg()} {
		_, err := RunLoopback(mdl, fed, ServerConfig{Training: cfg, ExpectDevices: fed.NumDevices()},
			[]solver.LocalSolver{shortSolver{}, nil, nil})
		if err == nil {
			t.Fatalf("%s: short reply accepted", core.Label(cfg))
		}
		for _, want := range []string{"device ", fmt.Sprint(mdl.NumParams() - 1), fmt.Sprint(mdl.NumParams())} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %q does not name the device and both lengths", core.Label(cfg), err)
			}
		}
	}
}
