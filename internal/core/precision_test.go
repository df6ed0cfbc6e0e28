package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"fedprox/internal/comm"
	"fedprox/internal/model"
	"fedprox/internal/privacy"
	"fedprox/internal/solver"
	"fedprox/internal/tensor"
	"fedprox/internal/tier"
	"fedprox/internal/vtime"
)

// TestF32RunTracksF64 runs the same seeded deployment at both widths
// and checks the f32 trajectory stays within rounding distance of the
// f64 one at every evaluation point — evaluation itself always runs at
// full width, so the losses compare like for like.
func TestF32RunTracksF64(t *testing.T) {
	mdl, fed := tinyWorkload()
	cfg := FedProx(6, 5, 3, 0.01, 1)
	cfg.EvalEvery = 2

	h64, err := Run(mdl, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Precision = tensor.F32
	h32, err := Run(mdl, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(h64.Points) != len(h32.Points) {
		t.Fatalf("point counts differ: f64 %d, f32 %d", len(h64.Points), len(h32.Points))
	}
	for i := range h64.Points {
		l64, l32 := h64.Points[i].TrainLoss, h32.Points[i].TrainLoss
		if d := math.Abs(l32-l64) / (math.Abs(l64) + 1); d > 1e-4 {
			t.Fatalf("round %d: f32 loss %.6f drifted %.2e from f64's %.6f", h64.Points[i].Round, l32, d, l64)
		}
	}
	// The nominal wire is priced at the deployment's word size.
	if up64, up32 := h64.Final().Cost.UplinkBytes, h32.Final().Cost.UplinkBytes; up32*2 != up64 {
		t.Fatalf("f32 uplink accounting %d is not half of f64's %d", up32, up64)
	}
	if wantLabel := h64.Label + " [f32]"; h32.Label != wantLabel {
		t.Fatalf("f32 label %q, want %q", h32.Label, wantLabel)
	}
}

// TestF32CodecRunConverges: the f32 path composes with the stateful
// codec chain — the run completes, improves on its starting loss, and
// stays close to the f64 run on the same quantized wire.
func TestF32CodecRunConverges(t *testing.T) {
	mdl, fed := tinyWorkload()
	cfg := FedProx(6, 5, 3, 0.01, 1)
	cfg.EvalEvery = 2
	cfg.Codec = comm.Spec{Name: "delta+qsgd", Bits: 8}

	h64, err := Run(mdl, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Precision = tensor.F32
	h32, err := Run(mdl, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fin64, fin32 := h64.Final().TrainLoss, h32.Final().TrainLoss
	if fin32 >= h32.Points[0].TrainLoss {
		t.Fatalf("f32 codec run did not improve: first %.4f, final %.4f", h32.Points[0].TrainLoss, fin32)
	}
	if d := math.Abs(fin32-fin64) / fin64; d > 0.02 {
		t.Fatalf("f32 codec run final loss %.4f drifted %.1f%% from f64's %.4f", fin32, 100*d, fin64)
	}
}

// TestF32ConfigRejections: every configuration the f32 path cannot
// execute is refused up front — precision is part of the negotiated
// wire format, so there is no silent fall back to f64.
func TestF32ConfigRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"unknown precision", func(c *Config) { c.Precision = "f16" }},
		{"privacy hook", func(c *Config) {
			c.Precision = tensor.F32
			c.Privacy = &privacy.Mechanism{ClipNorm: 0.5, NoiseStd: 0.01, Seed: 1}
		}},
		{"topk uplink", func(c *Config) {
			c.Precision = tensor.F32
			c.Codec = comm.Spec{Name: "topk", TopK: 0.25}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := FedProx(4, 3, 2, 0.01, 1)
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("invalid f32 config accepted")
			}
		})
	}
}

// TestF32DeviceConstructorPanics: wiring an f32 device around a runtime
// that cannot execute the width is a programming error, caught at
// construction.
func TestF32DeviceConstructorPanics(t *testing.T) {
	mdl, fed := tinyWorkload()
	defer func() {
		if recover() == nil {
			t.Fatal("NewDevice accepted f32 with a privacy mechanism")
		}
	}()
	NewDevice(mdl, fed.Shards[:1], DeviceOptions{
		Precision: tensor.F32,
		Privacy:   &privacy.Mechanism{ClipNorm: 1, NoiseStd: 0.1, Seed: 2},
	})
}

// modelOnly hides a model's float32 path.
type modelOnly struct{ model.Model }

// TestF32WithoutModel32IsAnError: an f32 run over a model with no
// float32 path is refused with an error naming the missing interface —
// by the flat and the tiered entry points alike, before any device is
// built (the device constructors would panic).
func TestF32WithoutModel32IsAnError(t *testing.T) {
	mdl, fed := tinyWorkload()
	cfg := FedProx(2, 4, 1, 0.01, 1)
	cfg.Precision = tensor.F32
	runs := map[string]func() (*History, error){
		"Run": func() (*History, error) { return Run(modelOnly{mdl}, fed, cfg) },
		"RunTiered": func() (*History, error) {
			return RunTiered(modelOnly{mdl}, fed.Fleet(), cfg, tier.Topology{FanOut: 2, Depth: 1})
		},
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			_, err := run()
			if err == nil || !strings.Contains(err.Error(), "Model32") {
				t.Fatalf("got error %v, want one naming model.Model32", err)
			}
		})
	}
}

// TestF32PrerequisitesAgree: every layer that gates the f32 path —
// the device constructor, InstallLinks, SupportsPrecision and Run —
// accepts exactly the runtimes with a Model32 model, a LocalSolver32
// solver and no privacy mechanism, and rejects the other seven
// combinations.
func TestF32PrerequisitesAgree(t *testing.T) {
	mdl, fed := tinyWorkload()
	spec := comm.Spec{Name: "raw", Precision: tensor.F32}
	for _, m32 := range []bool{true, false} {
		for _, s32 := range []bool{true, false} {
			for _, priv := range []bool{false, true} {
				t.Run(fmt.Sprintf("model32=%v/solver32=%v/privacy=%v", m32, s32, priv), func(t *testing.T) {
					var m model.Model = mdl
					if !m32 {
						m = modelOnly{mdl}
					}
					opts := DeviceOptions{Solver: solver.SGDSolver{}}
					if !s32 {
						opts.Solver = solver.MomentumSolver{Beta: 0.9}
					}
					if priv {
						opts.Privacy = &privacy.Mechanism{ClipNorm: 1, NoiseStd: 0.1, Seed: 2}
					}
					want := m32 && s32 && !priv

					wide := NewDevice(m, fed.Shards[:1], opts)
					if got := wide.SupportsPrecision(tensor.F32); got != want {
						t.Errorf("SupportsPrecision = %v, want %v", got, want)
					}
					if err := wide.InstallLinks(spec, spec); (err == nil) != want {
						t.Errorf("InstallLinks error %v, want accepted=%v", err, want)
					}
					f32 := opts
					f32.Precision = tensor.F32
					if got := constructs(func() { NewDevice(m, fed.Shards[:1], f32) }); got != want {
						t.Errorf("NewDevice accepted=%v, want %v", got, want)
					}
					cfg := FedProx(1, 2, 1, 0.01, 1)
					cfg.Precision, cfg.Solver, cfg.Privacy = tensor.F32, opts.Solver, opts.Privacy
					if _, err := Run(m, fed, cfg); (err == nil) != want {
						t.Errorf("Run error %v, want accepted=%v", err, want)
					}
				})
			}
		}
	}
}

// constructs reports whether build returns without panicking.
func constructs(build func()) (ok bool) {
	defer func() { ok = recover() == nil }()
	build()
	return true
}

// uplinkRecorder wraps a latency model and records every uplink size
// the virtual clock is asked to price.
type uplinkRecorder struct {
	vtime.LatencyModel
	up []int64
}

func (r *uplinkRecorder) UplinkSeconds(seq, device int, bytes int64) float64 {
	r.up = append(r.up, bytes)
	return r.LatencyModel.UplinkSeconds(seq, device, bytes)
}

// TestF32VTimePricesFourByteUplinks: without a codec an f32 run's raw
// replies are priced on the virtual clock at the deployment word size,
// the same 4 bytes per coordinate History.Cost charges.
func TestF32VTimePricesFourByteUplinks(t *testing.T) {
	mdl, fed := tinyWorkload()
	for _, mode := range []AggregationMode{SyncRounds, AsyncTotal} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := vtimeAsyncConfig(mode, fed.NumDevices())
			cfg.Precision = tensor.F32
			rec := &uplinkRecorder{LatencyModel: cfg.VTime.Model}
			cfg.VTime.Model = rec
			if _, err := Run(mdl, fed, cfg); err != nil {
				t.Fatal(err)
			}
			if len(rec.up) == 0 {
				t.Fatal("no uplink was priced")
			}
			for _, b := range rec.up {
				if want := int64(4 * mdl.NumParams()); b != want {
					t.Fatalf("uplink priced at %d bytes, want %d", b, want)
				}
			}
		})
	}
}
