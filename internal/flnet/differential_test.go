package flnet

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"calibre/internal/eval"
	"calibre/internal/experiments"
	"calibre/internal/fl"
)

// TestSimulatorAndServerAgree is the cross-runtime differential gate: the
// paper's numbers — per-client accuracy, its mean, its variance (the
// fairness metric) and the bottom decile — must not depend on which
// runtime produced them. The same (method, seed, rounds, clients/round)
// goes through fl.Simulator + fl.PersonalizeAll and through flnet on
// loopback with real RunClient goroutines; the global must be
// bit-identical, the RoundStats history DeepEqual, and every client's
// personalized accuracy equal. Both runtimes are transports over one round
// core (fl.RunRounds) and derive client RNGs from one function
// (fl.ClientRNG), which is what this pins.
func TestSimulatorAndServerAgree(t *testing.T) {
	signFlip := &fl.Adversary{Kind: fl.AdvSignFlip, Scale: 3, Frac: 0.3}
	cases := []struct {
		name, method string
		agg          fl.Aggregator // nil keeps the method's own
		adv          *fl.Adversary
	}{
		{name: "fedavg", method: "fedavg"},
		{name: "calibre-simclr", method: "calibre-simclr"},
		{name: "median-vs-sign-flip", method: "fedavg", agg: fl.CoordinateMedian{}, adv: signFlip},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const seed = 17
			env, err := experiments.BuildEnvironment(experiments.Settings()["cifar10-q(2,500)"], experiments.ScaleSmoke, seed)
			if err != nil {
				t.Fatalf("BuildEnvironment: %v", err)
			}
			n := len(env.Participants)
			// A fresh method per runtime: trainers may cache per-client state.
			build := func() *fl.Method {
				m, err := experiments.BuildMethod(env, tc.method)
				if err != nil {
					t.Fatalf("BuildMethod: %v", err)
				}
				if tc.agg != nil {
					m.Aggregator = tc.agg
				}
				return m
			}
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()

			m := build()
			sim, err := fl.NewSimulator(fl.SimConfig{
				Rounds: env.Preset.Rounds, ClientsPerRound: env.Preset.ClientsPerRound, Seed: seed, Adversary: tc.adv,
			}, m, env.Participants)
			if err != nil {
				t.Fatalf("NewSimulator: %v", err)
			}
			simGlobal, simHistory, err := sim.Run(ctx)
			if err != nil {
				t.Fatalf("sim Run: %v", err)
			}
			simAccs, err := fl.PersonalizeAll(ctx, seed, m, env.Participants, simGlobal, 0)
			if err != nil {
				t.Fatalf("PersonalizeAll: %v", err)
			}

			m = build()
			srv, err := NewServer(ServerConfig{
				Addr: "127.0.0.1:0", NumClients: n, Rounds: env.Preset.Rounds, ClientsPerRound: env.Preset.ClientsPerRound,
				Seed: seed, Aggregator: m.Aggregator, InitGlobal: m.InitGlobal, Adversary: tc.adv, IOTimeout: 30 * time.Second,
			})
			if err != nil {
				t.Fatalf("NewServer: %v", err)
			}
			trainer := tc.adv.WrapTrainer(m.Trainer, seed, n)
			var wg sync.WaitGroup
			errs := make([]error, n)
			for i, c := range env.Participants {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[i] = RunClient(ctx, ClientConfig{Addr: srv.Addr().String(), ClientID: c.ID, Data: c,
						Trainer: trainer, Personalizer: m.Personalizer, Seed: seed, IOTimeout: 30 * time.Second})
				}()
			}
			res, err := srv.Run(ctx)
			wg.Wait()
			if err != nil {
				t.Fatalf("server Run: %v", err)
			}
			for i, cerr := range errs {
				if cerr != nil {
					t.Fatalf("client %d: %v", env.Participants[i].ID, cerr)
				}
			}

			if !reflect.DeepEqual(simGlobal, res.Global) {
				t.Error("final global differs between simulator and server")
			}
			if !reflect.DeepEqual(simHistory, res.History) {
				t.Errorf("history differs:\nsim: %+v\nnet: %+v", simHistory, res.History)
			}
			if tc.adv != nil {
				adversarial := 0
				for _, h := range res.History {
					adversarial += h.AdversarialUpdates
				}
				if adversarial == 0 {
					t.Error("no adversarial update was accounted: the hostile case is vacuous")
				}
			}
			netAccs := make([]float64, n)
			for i, c := range env.Participants {
				acc, ok := res.Accuracies[c.ID]
				if !ok {
					t.Fatalf("server personalized no client %d", c.ID)
				}
				netAccs[i] = acc
			}
			if !reflect.DeepEqual(simAccs, netAccs) {
				t.Errorf("per-client accuracies differ:\nsim: %v\nnet: %v", simAccs, netAccs)
			}
			ss, ns := eval.Summarize(simAccs), eval.Summarize(netAccs)
			if ss.Mean != ns.Mean || ss.Variance != ns.Variance || ss.Bottom10 != ns.Bottom10 {
				t.Errorf("summary differs: sim mean/var/bottom10 = %v/%v/%v, net = %v/%v/%v",
					ss.Mean, ss.Variance, ss.Bottom10, ns.Mean, ns.Variance, ns.Bottom10)
			}
		})
	}
}
