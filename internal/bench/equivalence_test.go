package bench

import (
	"reflect"
	"runtime"
	"testing"
)

// TestParallelRunnerEquivalence is the bit-exactness contract of the
// host-parallel runner: for every harness, one simulation at a time
// (GOMAXPROCS=1) and four simulations side by side (GOMAXPROCS=4) must
// produce deep-equal results, down to the last simulated picosecond. Under
// `go test -race` this doubles as the race test of the parallel runner:
// four workers drive whole simulations concurrently.
func TestParallelRunnerEquivalence(t *testing.T) {
	harnesses := []struct {
		name string
		run  func() any
	}{
		{"fig6", func() any { return Fig6(20, nil) }},
		{"fig7", func() any { return Fig7(20, []int{2, 4}, nil) }},
		{"table1", func() any {
			s, l := Table1Both()
			return []Table1Result{s, l}
		}},
		{"fig9", func() any {
			cfg := PaperFig9(2)
			cfg.CoreCounts = []int{2, 4}
			return Fig9(cfg)
		}},
		{"ablation-wcb", func() any {
			with, without := AblationWCB(2, 4)
			return []float64{with, without}
		}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, h := range harnesses {
		t.Run(h.name, func(t *testing.T) {
			runtime.GOMAXPROCS(1)
			serial := h.run()

			runtime.GOMAXPROCS(4)
			par := h.run()
			if !reflect.DeepEqual(serial, par) {
				t.Errorf("parallel run diverges from serial:\nserial   = %+v\nparallel = %+v", serial, par)
			}
		})
	}
}
