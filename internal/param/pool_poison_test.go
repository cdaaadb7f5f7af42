package param_test

import (
	"context"
	"math"
	"testing"

	"calibre/internal/experiments"
	"calibre/internal/fl"
	"calibre/internal/param"
)

// TestPoisonedPoolFederationBitIdentical pins that no borrower of param's
// pool reads what it has not written: the optimizer's velocity (never
// cleared: the first step takes it as +0), FedAvg's running sum (never
// cleared: the first update writes it), the update's gradients, the
// received and trained vectors. Each federation runs once as it is and once
// with every vector the pool lends again filled with NaN, and must end on
// the same bits: fedavg (the supervised step and the streaming sink) and
// calibre-simclr (the SSL step, the prototype regulariser, divergence
// weighting).
func TestPoisonedPoolFederationBitIdentical(t *testing.T) {
	for _, method := range []string{"fedavg", "calibre-simclr"} {
		t.Run(method, func(t *testing.T) {
			run := func() []float64 {
				setting, ok := experiments.Settings()["cifar10-q(2,500)"]
				if !ok {
					t.Fatal("setting cifar10-q(2,500) missing")
				}
				env, err := experiments.BuildEnvironment(setting, experiments.Scale("smoke"), 42)
				if err != nil {
					t.Fatal(err)
				}
				m, err := experiments.BuildMethod(env, method)
				if err != nil {
					t.Fatal(err)
				}
				out, err := experiments.RunBuiltMethodWith(context.Background(), env, m, func(cfg *fl.SimConfig) { cfg.Rounds = 3 })
				if err != nil {
					t.Fatal(err)
				}
				return append(append([]float64{}, out.Global...), out.Participants.Accs...)
			}
			want := run()
			filled := param.PoisonIdle(t)
			got := run()
			if filled() == 0 {
				t.Fatal("the pool lent no vector again: the poison was not exercised")
			}
			if len(got) != len(want) {
				t.Fatalf("%d values as is, %d under the poison", len(want), len(got))
			}
			for i := range want {
				if math.IsNaN(want[i]) {
					t.Fatalf("element %d is NaN as is", i)
				}
				if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
					t.Fatalf("element %d is %v as is, %v from a poisoned pool", i, want[i], got[i])
				}
			}
		})
	}
}
