package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"runtime"
	"testing"

	"fedprox/internal/comm"
	"fedprox/internal/obs"
	"fedprox/internal/tier"
)

// goldenDigest hashes every column of h — each float by its exact
// Float64bits, so NaN payloads and signed zeros count — followed by the
// JSONL trace bytes of the run.
func goldenDigest(h *History, trace []byte) string {
	sum := sha256.New()
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Float64:
			_ = binary.Write(sum, binary.LittleEndian, math.Float64bits(v.Float()))
		case reflect.Int, reflect.Int64:
			_ = binary.Write(sum, binary.LittleEndian, v.Int())
		case reflect.String:
			sum.Write([]byte(v.String()))
			sum.Write([]byte{0})
		case reflect.Slice:
			_ = binary.Write(sum, binary.LittleEndian, int64(v.Len()))
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		default:
			panic("goldenDigest: unhandled kind " + v.Kind().String())
		}
	}
	walk(reflect.ValueOf(*h))
	sum.Write(trace)
	return hex.EncodeToString(sum.Sum(nil))
}

// TestDriverGolden pins every in-process executor's output — History
// and trace — to digests recorded before the drivers shared one command
// loop. The equivalence tests compare executors with each other, so a
// regression common to all of them would pass those; it cannot pass
// these.
func TestDriverGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds, which rounds
		// differently; the digests were recorded on amd64.
		t.Skip("driver digests are pinned on amd64")
	}
	mdl, fed := tinyWorkload()
	n := fed.NumDevices()
	codec := comm.Spec{Name: "delta+qsgd", Bits: 8}

	traced := func(t *testing.T, cfg Config, run func(Config) (*History, error)) (*History, []byte) {
		t.Helper()
		var buf bytes.Buffer
		j := obs.NewJSONL(&buf)
		cfg.Trace = j
		h, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Err(); err != nil {
			t.Fatal(err)
		}
		return h, buf.Bytes()
	}
	flat := func(cfg Config) (*History, error) { return Run(mdl, fed, cfg) }
	replay := func(recorded Config, mutate func(*Config)) func(t *testing.T) (*History, []byte) {
		return func(t *testing.T) (*History, []byte) {
			_, evs, _ := recordTraced(t, recorded)
			cfg := recorded
			mutate(&cfg)
			cfg.Solver = panicSolver{}
			return traced(t, cfg, func(c Config) (*History, error) { return Replay(mdl, fed.Fleet(), c, evs) })
		}
	}
	tiered := func(depth int, timed bool, c comm.Spec) func(t *testing.T) (*History, []byte) {
		return func(t *testing.T) (*History, []byte) {
			cfg := tieredConfig(4)
			cfg.StragglerFraction = 0.5
			cfg.Codec = c
			topo := tier.Topology{FanOut: 2, Depth: depth}
			if timed {
				cfg.VTime = VTimeConfig{Model: vtimeModel(n, 17), DeadlineSeconds: 60}
				topo.Model = vtimeModel(16, 23)
			}
			return traced(t, cfg, func(c Config) (*History, error) { return RunTiered(mdl, fed.Fleet(), c, topo) })
		}
	}
	syncCfg := func(mutate func(*Config)) func(t *testing.T) (*History, []byte) {
		return func(t *testing.T) (*History, []byte) {
			cfg := FedProx(5, 5, 3, 0.01, 1)
			cfg.StragglerFraction = 0.5
			cfg.EvalEvery = 2
			mutate(&cfg)
			return traced(t, cfg, flat)
		}
	}
	vtimeCfg := func(mode AggregationMode, par int) func(t *testing.T) (*History, []byte) {
		return func(t *testing.T) (*History, []byte) {
			cfg := vtimeAsyncConfig(mode, n)
			if mode == Buffered {
				cfg.Async.BufferK = 3
			}
			cfg.Parallelism = par
			return traced(t, cfg, flat)
		}
	}
	syncDeadline := replaySyncConfig(n)
	syncBytes := replaySyncConfig(n)
	syncBytes.VTime.DeadlineSeconds = 0
	syncBytes.VTime.RoundBytes = int64(3 * 2 * mdl.NumParams() * 8)
	asyncRec := vtimeAsyncConfig(AsyncTotal, n)
	keep := func(*Config) {}

	cases := []struct {
		name string
		run  func(*testing.T) (*History, []byte)
		want string
	}{
		{"sync", syncCfg(keep), "1dd79da23b29f03ce3da6af7c379376bc7c3583ef605be7e248b3c0138562070"},
		{"sync-codec", syncCfg(func(c *Config) { c.Codec = codec }), "cdc1f679bc8b473f3c698577f276a2ab04664578c8a65775330765d12a30e16e"},
		{"sync-vtime-deadline", func(t *testing.T) (*History, []byte) { return traced(t, syncDeadline, flat) }, "85a6a99d90df5c88230e06bc783fef3ba5c15c6735f7aa8cc0457a07f161238c"},
		{"sync-vtime-bytes", func(t *testing.T) (*History, []byte) { return traced(t, syncBytes, flat) }, "3936be0daa03d61124f4abd05095dfbc47955f71d3674e5a61de86dae567d6db"},
		{"async-vtime-p1", vtimeCfg(AsyncTotal, 1), "96dc9fd5d2190b823f170de54439a58f59734034d3752f40e68a4adc0ac13a9c"},
		{"async-vtime-pmax", vtimeCfg(AsyncTotal, runtime.GOMAXPROCS(0)), "96dc9fd5d2190b823f170de54439a58f59734034d3752f40e68a4adc0ac13a9c"},
		{"buffered-vtime-p1", vtimeCfg(Buffered, 1), "c42fd4aed0bb324bc56a4fd015f624854b708b0bd1f504d89f6f61193a8685ee"},
		{"buffered-vtime-pmax", vtimeCfg(Buffered, runtime.GOMAXPROCS(0)), "c42fd4aed0bb324bc56a4fd015f624854b708b0bd1f504d89f6f61193a8685ee"},
		{"replay-sync", replay(syncDeadline, keep), "3777df2c649d21c3a400b5d37421e299b2a17955a206dc9f6154238597d20112"},
		{"replay-async", replay(asyncRec, keep), "1d0e77dff48ac1208a27d29e8969dc0d07856db9a01c106246d92b5ee0de7358"},
		{"replay-whatif-deadline", replay(syncDeadline, func(c *Config) { c.VTime.DeadlineSeconds = 0.9 }), "e977adb015ccc233eb9a02384510482a70b08b2b2a8e3295da79c6f9e07887b3"},
		{"replay-whatif-buffered", replay(syncDeadline, func(c *Config) {
			c.VTime.DeadlineSeconds = 0
			c.Async = AsyncConfig{Mode: Buffered, BufferK: 3}
		}), "99a14189363ccb3c6b29f6d4f996ed4c8931e9109ef7df58e6c9e3e6a3646f24"},
		{"tiered-d1", tiered(1, false, comm.Spec{}), "7f493a79cff409b8d512b2d92e5da4a96da4cd78a5f24824a618d9b26d4046b5"},
		{"tiered-d1-timed-codec", tiered(1, true, codec), "c5f9390f6b04bddebd516ea2c0b419619b693b770164538ba5323c0060ff424f"},
		{"tiered-d2-codec", tiered(2, false, codec), "bca5128fb13a8b27859785b9b8f2eef054544dcc056dac8855f44123860019e3"},
		{"tiered-d2-timed", tiered(2, true, comm.Spec{}), "60341461ff6ff8a004583ce9d08de5d851e1987deca123cbbbf28ab719de0795"},
		{"tiered-d2-timed-codec", tiered(2, true, codec), "5fdcfc0b210b5d8dd1a4bf0d1500de3a2cfea5d92d7b35da56749afd4a5749e7"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, trace := tc.run(t)
			if len(trace) == 0 {
				t.Fatal("run emitted no trace")
			}
			if got := goldenDigest(h, trace); got != tc.want {
				t.Errorf("digest %s, pinned %s", got, tc.want)
			}
		})
	}
}
