package core

import (
	"fmt"
	"strings"
	"testing"

	"fedprox/internal/comm"
	"fedprox/internal/data"
	"fedprox/internal/frand"
	"fedprox/internal/model"
	"fedprox/internal/solver"
)

// resizingSolver is a faulty local solver: it returns a solution extra
// coordinates longer (negative: shorter) than the model.
type resizingSolver struct{ extra int }

func (resizingSolver) Name() string { return "sgd" }

func (s resizingSolver) Solve(_ model.Model, _ []data.Example, w0 []float64, _ solver.Config, _ int, _ *frand.Source) []float64 {
	out := make([]float64, len(w0)+s.extra)
	copy(out, w0)
	return out
}

// TestWrongLengthReplyIsAnError: a reply whose solution does not have
// the model's dimension fails the run with an error naming the device
// and both lengths — it must never panic the coordinator in the fold.
func TestWrongLengthReplyIsAnError(t *testing.T) {
	mdl, fed := tinyWorkload()
	for _, tc := range []struct {
		name string
		cfg  func() Config
	}{
		{"sync", func() Config { return FedProx(3, 5, 3, 0.01, 1) }},
		{"sync-codec", func() Config {
			cfg := FedProx(3, 5, 3, 0.01, 1)
			cfg.Codec = comm.Spec{Name: "qsgd", Bits: 8}
			return cfg
		}},
		{"async-vtime", func() Config { return vtimeAsyncConfig(AsyncTotal, fed.NumDevices()) }},
	} {
		for _, extra := range []int{-1, 1} {
			t.Run(fmt.Sprintf("%s/%+d", tc.name, extra), func(t *testing.T) {
				cfg := tc.cfg()
				cfg.Solver = resizingSolver{extra: extra}
				_, err := Run(mdl, fed, cfg)
				if err == nil {
					t.Fatal("wrong-length reply accepted")
				}
				msg := err.Error()
				for _, want := range []string{"device ", fmt.Sprint(mdl.NumParams() + extra), fmt.Sprint(mdl.NumParams())} {
					if !strings.Contains(msg, want) {
						t.Fatalf("error %q does not name the device and both lengths", msg)
					}
				}
			})
		}
	}
}
