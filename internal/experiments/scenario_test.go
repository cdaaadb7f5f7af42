package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"calibre/internal/fl"
)

// hostileScenario sets every knob away from its default.
func hostileScenario() Scenario {
	return Scenario{
		Method: "fedavg-ft", Setting: "cifar10-q(2,500)", Scale: ScaleSmoke, Seed: 7,
		Quorum: 2, Straggler: "drop", Aggregator: "median",
		Adversary: "sign-flip(3)", AdvFrac: 0.3, Availability: "diurnal(0.1,0.6,8)",
	}
}

// TestScenarioBuildMatchesHandAssembly holds Build to the sequence every
// tool used to spell out by hand (settings lookup → BuildEnvironment →
// BuildMethod → aggregator override → ParseAdversary / ParseTrace /
// ParseStragglerPolicy), and pins the override rule: "" and "mean" both
// keep the method's own aggregator.
func TestScenarioBuildMatchesHandAssembly(t *testing.T) {
	sc := hostileScenario()
	got, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}

	env, err := BuildEnvironment(Settings()[sc.Setting], sc.Scale, sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := fl.ParseAggregator(sc.Aggregator)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := fl.ParseAdversary(sc.Adversary)
	if err != nil {
		t.Fatal(err)
	}
	adv.Frac = sc.AdvFrac
	avail, err := fl.ParseTrace(sc.Availability)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := fl.ParseStragglerPolicy(sc.Straggler)
	if err != nil {
		t.Fatal(err)
	}

	if g, w := fmt.Sprint(got.Method.Aggregator), fmt.Sprint(agg); g != w || g != "median" {
		t.Errorf("aggregator = %s, hand assembly %s, want median", g, w)
	}
	want := fl.Federation{Quorum: sc.Quorum, Straggler: policy, Adversary: adv, Availability: avail}
	if !reflect.DeepEqual(got.Federation, want) || policy != fl.StragglerDrop {
		t.Errorf("knobs = %+v, hand assembly %+v (want straggler drop)", got.Federation, want)
	}
	if got.Env.Seed != env.Seed || len(got.Env.Participants) != len(env.Participants) ||
		!reflect.DeepEqual(got.Env.Participants[0].Train.X, env.Participants[0].Train.X) {
		t.Error("Build generated a different world than BuildEnvironment")
	}

	// fedavg-ft aggregates by plain weighted mean; calibre-simclr by
	// prototype divergence. Neither "" nor "mean" may replace either.
	for _, method := range []string{"fedavg-ft", "calibre-simclr"} {
		own, err := BuildMethod(env, method)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []string{"", "mean"} {
			w, err := Scenario{Method: method, Setting: sc.Setting, Scale: sc.Scale, Seed: sc.Seed, Aggregator: spec}.BuildOn(env)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.TypeOf(w.Method.Aggregator) != reflect.TypeOf(own.Aggregator) {
				t.Errorf("%s with aggregator %q: got %T, want the method's own %T", method, spec, w.Method.Aggregator, own.Aggregator)
			}
			if !reflect.DeepEqual(w.Federation, fl.Federation{}) {
				t.Errorf("%s: zero knobs built %+v, want the zero Federation (honest, always available, requeue)", method, w.Federation)
			}
		}
	}
}

// TestScenarioBuildRejectsBadNames: unknown names are errors that list the
// valid ones; malformed knob specs are errors.
func TestScenarioBuildRejectsBadNames(t *testing.T) {
	ok := hostileScenario()
	for name, tc := range map[string]struct {
		mutate func(*Scenario)
		want   string
	}{
		"setting":      {func(s *Scenario) { s.Setting = "nope" }, "cifar10-d(0.3,600)"},
		"method":       {func(s *Scenario) { s.Method = "nope" }, "calibre-simclr"},
		"scale":        {func(s *Scenario) { s.Scale = "nope" }, "smoke|ci|paper"},
		"straggler":    {func(s *Scenario) { s.Straggler = "nope" }, "requeue or drop"},
		"aggregator":   {func(s *Scenario) { s.Aggregator = "nope" }, "median"},
		"adversary":    {func(s *Scenario) { s.Adversary = "nope" }, "nope"},
		"availability": {func(s *Scenario) { s.Availability = "nope" }, "nope"},
	} {
		sc := ok
		tc.mutate(&sc)
		if _, err := sc.Build(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("bad %s: err = %v, want one mentioning %q", name, err, tc.want)
		}
	}
}

// TestFingerprintRecipesPinned pins the three snapshot-fingerprint recipes
// to the values the commit before the Scenario type existed computed for
// hostileScenario (server: 3 clients, 2 per round, 5 s deadline). Stores
// written by any earlier build resume only while these hold, so a reorder
// or a renamed field must fail here, not in someone's checkpoint
// directory. (hostileScenario also set the update-wire knob the vocabulary
// had then; the key, heading and sweep-cell values here are what the last
// build with that knob computed with it at its default, which is what
// every scenario now renders — see Scenario.knobs.)
func TestFingerprintRecipesPinned(t *testing.T) {
	sc := hostileScenario()
	if got, want := sc.Key(), "method=fedavg-ft|setting=cifar10-q(2,500)|scale=smoke|seed=7|delta=false|quorum=2|dropout=0|straggler=drop|agg=median|adv=sign-flip(3)|advfrac=0.3|avail=diurnal(0.1,0.6,8)"; got != want {
		t.Errorf("Key = %s\nwant  %s", got, want)
	}
	if got, want := sc.Scenario(), "setting=cifar10-q(2,500)|scale=smoke|delta=false|quorum=2|dropout=0|straggler=drop|agg=median|adv=sign-flip(3)|advfrac=0.3|avail=diurnal(0.1,0.6,8)"; got != want {
		t.Errorf("Scenario = %s\nwant       %s", got, want)
	}
	if got, want := sc.EnvSeed(), int64(2375309292462324723); got != want {
		t.Errorf("EnvSeed = %d, want %d", got, want)
	}
	w, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Scenario{Method: sc.Method, Setting: sc.Setting, Scale: sc.Scale, Seed: sc.Seed}.BuildOn(w.Env)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ recipe, got, want string }{
		{"sweep-cell", sc.Fingerprint(), "21bf17da7fd1f0e6"},
		{"server", w.ServerFingerprint(3, 2, 5*time.Second), "afd2a477bef2054f"},
		{"server, default knobs", plain.ServerFingerprint(3, 2, 0), "279f8801909a89ab"},
		{"simulator", simulatorFingerprint(w.Env, sc.Method), "17f325f53aa134a5"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s fingerprint = %s, want %s", tc.recipe, tc.got, tc.want)
		}
	}
}
