package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fedprox/internal/comm"
	"fedprox/internal/core"
	"fedprox/internal/data"
	"fedprox/internal/data/imagesim"
	"fedprox/internal/data/mnistsim"
	"fedprox/internal/data/synthetic"
	"fedprox/internal/fednet"
	"fedprox/internal/model"
	"fedprox/internal/model/linear"
	"fedprox/internal/solver"
	"fedprox/internal/tensor"
	"fedprox/internal/vtime"
)

// size fixes the amount of work of every workload. The benchmark runs
// fullSize; the tests run a miniature.
type size struct {
	// mnistDevices and mnistSampleScale shape the MNIST surrogate
	// (1000 devices at scale 1 is the paper's shape); mnistRounds is the
	// round count of sim-mnist and fednet-mnist.
	mnistDevices     int
	mnistSampleScale float64
	mnistRounds      int
	// fleetDevices is the population of fleet-1e5; fleetRounds its
	// milestone count, of fleetClients dispatches each.
	fleetDevices int
	fleetRounds  int
}

// fleetClients is fleet-1e5's dispatches per milestone (speed.ScaleRun's
// value).
const fleetClients = 100

var fullSize = size{
	mnistDevices:     1000,
	mnistSampleScale: 1,
	mnistRounds:      60,
	fleetDevices:     100_000,
	fleetRounds:      1000,
}

// inputs is what a workload's set-up builds from the seed: the data, the
// model, and the run configuration. The program under test sees nothing
// else of the seed.
type inputs struct {
	fed   *data.Federated // the MNIST workloads' dataset; nil on fleet-1e5
	fleet data.Fleet      // the population, fed.Fleet() on the MNIST workloads
	mdl   *linear.Model
	cfg   core.Config
}

// outcome is one whole run through a public entry point.
type outcome struct {
	hist *core.History
	// setupS is set-up paid inside the run call (fednet: listener,
	// server, workers and their registration); zero in process.
	setupS float64
	// start and end bound the part of the run that counts as run_s, and
	// stolen is the CPU time the hypervisor took during it.
	start, end time.Time
	stolen     float64
	// solved is the examples the local solves processed (epochs times
	// local training examples, summed over dispatches).
	solved int64
	// sys is runtime.MemStats.Sys when the run returned.
	sys uint64
}

// runS is the run's wall time less the time stolen from it.
func (o *outcome) runS() float64 { return o.end.Sub(o.start).Seconds() - o.stolen }

// trainExamples is the population's local training examples, the
// examples one evaluation pass computes the loss over.
func (in *inputs) trainExamples() int64 {
	var n int64
	for k := range in.fleet.NumDevices() {
		n += int64(in.fleet.TrainSize(k))
	}
	return n
}

// work is the examples a run processes: every local solve's, plus the
// training examples of every evaluation pass.
func (in *inputs) work(o *outcome) int64 {
	return o.solved + int64(len(o.hist.Points))*in.trainExamples()
}

// workload is one benchmark workload.
type workload struct {
	name string
	// setups is how many times a benchmark run repeats the set-up.
	setups  int
	prepare func(seed uint64, sz size) *inputs
	// run executes the workload once; tr is nil for an untraced run.
	run func(in *inputs, tr *tracer) (*outcome, error)
}

var workloads = []*workload{
	{name: "sim-mnist", setups: 3, prepare: prepareSimMNIST, run: runInProcess},
	{name: "fleet-1e5", setups: 21, prepare: prepareFleet, run: runInProcess},
	{name: "fednet-mnist", setups: 3, prepare: prepareFednetMNIST, run: runFednet},
}

func lookup(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// mnistData generates the MNIST surrogate from seed.
func mnistData(seed uint64, sz size) *data.Federated {
	c := mnistsim.Default().Scaled(sz.mnistSampleScale)
	c.Devices = sz.mnistDevices
	c.Seed = seed
	return imagesim.Generate(c)
}

// mnistConfig is the paper's §5.2 hardest systems-heterogeneity setting
// on MNIST: FedProx μ=1, K=10, E=20, batch 10, lr 0.03, 90% stragglers
// whose partial work is aggregated, evaluated every 10 rounds.
func mnistConfig(seed uint64, sz size) core.Config {
	cfg := core.FedProx(sz.mnistRounds, 10, 20, 0.03, 1)
	cfg.StragglerFraction = 0.9
	cfg.EvalEvery = 10
	cfg.Parallelism = runtime.NumCPU()
	cfg.Seed = seed
	return cfg
}

func prepareSimMNIST(seed uint64, sz size) *inputs {
	fed := mnistData(seed, sz)
	return &inputs{fed: fed, fleet: fed.Fleet(), mdl: linear.ForDataset(fed), cfg: mnistConfig(seed, sz)}
}

// prepareFednetMNIST is sim-mnist's task in float32 with delta+qsgd
// 8-bit on both links.
func prepareFednetMNIST(seed uint64, sz size) *inputs {
	in := prepareSimMNIST(seed, sz)
	in.cfg.Precision = tensor.F32
	in.cfg.Codec = comm.Spec{Name: "delta+qsgd", Bits: 8}
	return in
}

// prepareFleet builds fleet-1e5: speed.ScaleRun's virtual-time
// asynchronous run over a lazily synthesized Synthetic(1,1) fleet, plus
// delta+qsgd 8-bit on both links and more dispatches. It evaluates only
// at the forced first and last points.
func prepareFleet(seed uint64, sz size) *inputs {
	sc := synthetic.Config{
		Alpha: 1, Beta: 1,
		Devices:    sz.fleetDevices,
		Dim:        10,
		Classes:    5,
		MinSamples: 10,
		MaxSamples: 20,
		PowerAlpha: 1.55,
		TrainFrac:  0.8,
		Seed:       seed,
	}
	cfg := core.FedAvg(sz.fleetRounds, fleetClients, 1, 0.01)
	cfg.Mu = 0.1
	cfg.EvalEvery = sz.fleetRounds
	cfg.Async = core.AsyncConfig{Mode: core.AsyncTotal, MaxInFlight: 128}
	cfg.Codec = comm.Spec{Name: "delta+qsgd", Bits: 8}
	cfg.Parallelism = runtime.NumCPU()
	cfg.Seed = seed
	cfg.VTime = core.VTimeConfig{Model: vtime.MustModel(
		vtime.UniformCompute{SecondsPerEpoch: 0.05, Speed: vtime.SlowTail(sc.Devices, 0.1, 10)},
		vtime.Net{UplinkBps: 1e6, DownlinkBps: 4e6, Latency: 0.02, JitterStd: 0.1},
		cfg.Seed+101,
	)}
	return &inputs{fleet: synthetic.NewFleet(sc), mdl: linear.New(sc.Dim, sc.Classes), cfg: cfg}
}

// runInProcess runs sim-mnist or fleet-1e5 through core.Run or
// core.RunFleet. The traced run goes through RunFleet with every layer
// wrapped; core.Run is RunFleet over the eager fleet view, so both
// execute the same program.
func runInProcess(in *inputs, tr *tracer) (*outcome, error) {
	cfg := in.cfg
	var solved atomic.Int64
	cfg.Solver = probeSolver(solver.SGDSolver{}, &solved, tr)
	var (
		h   *core.History
		err error
		o   = &outcome{}
	)
	steal0 := stolenSeconds()
	switch {
	case tr != nil:
		cfg.Trace = tr.sink()
		m, fl := tr.model(in.mdl), tr.fleet(in.fleet)
		o.start = time.Now()
		h, err = core.RunFleet(m, fl, cfg)
	case in.fed != nil:
		o.start = time.Now()
		h, err = core.Run(in.mdl, in.fed, cfg)
	default:
		o.start = time.Now()
		h, err = core.RunFleet(in.mdl, in.fleet, cfg)
	}
	o.end = time.Now()
	if err != nil {
		return nil, err
	}
	o.hist, o.solved, o.sys = h, solved.Load(), memSys()
	o.stolen = stolenSeconds() - steal0
	return o, nil
}

// runFednet runs fednet-mnist: a fednet.Server over loopback TCP with one
// in-process worker connection per CPU, each hosting a contiguous slice
// of the devices. run_s starts once the last worker is registered.
func runFednet(in *inputs, tr *tracer) (*outcome, error) {
	t0 := time.Now()
	cfg := in.cfg
	var solved atomic.Int64
	local := probeSolver(solver.SGDSolver{}, &solved, tr)
	var mdl model.Model = in.mdl
	if tr != nil {
		cfg.Trace = tr.sink()
		mdl = tr.model(in.mdl)
	}
	srv, err := fednet.NewServer(in.mdl, fednet.ServerConfig{Training: cfg, ExpectDevices: in.fed.NumDevices()})
	if err != nil {
		return nil, err
	}
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	ln := &serverListener{Listener: raw, tr: tr}
	defer ln.Close()

	parts := splitShards(in.fed.Shards, runtime.NumCPU())
	conns := make([]net.Conn, len(parts))
	for i := range conns {
		c, err := net.Dial("tcp", raw.Addr().String())
		if err != nil {
			for _, c := range conns[:i] {
				c.Close()
			}
			return nil, fmt.Errorf("dial: %w", err)
		}
		conns[i] = c
		if tr != nil {
			conns[i] = &workerConn{Conn: c, tr: tr}
		}
	}
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i, part := range parts {
		w := fednet.NewWorkerWithOptions(mdl, part, core.DeviceOptions{Solver: local})
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.ServeConn(conns[i])
		}()
	}
	steal0 := stolenSeconds()
	h, runErr := srv.RunWithListener(ln)
	end := time.Now()
	stolen := stolenSeconds() - steal0
	ln.Close()
	wg.Wait()
	if runErr != nil {
		return nil, runErr
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("worker %d: %w", i, err)
		}
	}
	reg := ln.registered()
	return &outcome{hist: h, setupS: reg.Sub(t0).Seconds(), start: reg, end: end, stolen: stolen, solved: solved.Load(), sys: memSys()}, nil
}

// splitShards cuts shards into n contiguous, near-equal parts.
func splitShards(shards []*data.Shard, n int) [][]*data.Shard {
	n = max(1, min(n, len(shards)))
	parts := make([][]*data.Shard, n)
	for i := range parts {
		parts[i] = shards[i*len(shards)/n : (i+1)*len(shards)/n]
	}
	return parts
}

// stolenSeconds returns the wall time the hypervisor has so far taken
// from this machine, per CPU: the steal column of /proc/stat, in its
// fixed 100 ticks a second, over the CPU count. A CPU accrues steal
// only while it has work, so the difference across a run is the wall
// time the run lost to other guests of the host. It is 0 where the
// kernel reports no steal.
func stolenSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 / float64(runtime.NumCPU())
}

func memSys() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Sys
}
