package baselines_test

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"calibre/internal/baselines"
	"calibre/internal/core"
	"calibre/internal/experiments"
	"calibre/internal/ssl"
)

// Every Table I and design-ablation name resolves to calibre-<ssl>'s
// configuration with exactly its suffix applied to core.Options, and is
// named as requested.
func TestResolveVariantNames(t *testing.T) {
	cfg := baselines.DefaultConfig(ssl.Arch{InputDim: 16, HiddenDim: 24, FeatDim: 12, ProjDim: 8}, 10)
	cfg.WarmupRounds = 3
	base := core.DefaultOptions()
	base.WarmupRounds = 3
	with := func(edit func(*core.Options)) core.Options {
		o := base
		edit(&o)
		return o
	}
	want := map[string]core.Options{}
	for _, s := range []string{"simclr", "swav", "smog"} {
		want["calibre-"+s+"[base]"] = with(func(o *core.Options) { o.UseLn, o.UseLp = false, false })
		want["calibre-"+s+"[ln]"] = with(func(o *core.Options) { o.UseLn, o.UseLp = true, false })
		want["calibre-"+s+"[lp]"] = with(func(o *core.Options) { o.UseLn, o.UseLp = false, true })
		want["calibre-"+s+"[ln+lp]"] = base
	}
	want["calibre-simclr{full}"] = base
	want["calibre-simclr{fixed-k}"] = with(func(o *core.Options) { o.FixedK = true })
	want["calibre-simclr{no-gate}"] = with(func(o *core.Options) { o.NoQualityGate = true })
	want["calibre-simclr{no-filter}"] = with(func(o *core.Options) { o.KeepFrac = 0 })
	want["calibre-simclr{no-warmup}"] = with(func(o *core.Options) { o.WarmupRounds = -1 })

	plain, err := baselines.Build("calibre-simclr", cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	plainCfg := plain.Trainer.(*core.SSLTrainer).Cfg
	for name, opts := range want {
		m, err := baselines.Build(name, cfg, 4)
		if err != nil {
			t.Fatalf("Build(%s): %v", name, err)
		}
		if m.Name != name {
			t.Errorf("Build(%s) named %q", name, m.Name)
		}
		tr := m.Trainer.(*core.SSLTrainer)
		if tr.Reg.Opts != opts {
			t.Errorf("%s: options\n got %+v\nwant %+v", name, tr.Reg.Opts, opts)
		}
		if tr.Cfg.Epochs != plainCfg.Epochs || tr.Cfg.BatchSize != plainCfg.BatchSize || tr.Cfg.LR != plainCfg.LR {
			t.Errorf("%s: local training %+v, calibre-simclr's %+v", name, tr.Cfg, plainCfg)
		}
		if _, flavour, _ := baselines.Resolve(name); flavour != name[len("calibre-"):strings.IndexAny(name, "[{")] {
			t.Errorf("%s: SSL flavour %q", name, flavour)
		}
	}
}

// A suffix on anything but a calibre-<ssl> name, an unknown suffix and
// two suffixes are refused with the list of valid suffixes.
func TestResolveRefusesBadSuffixes(t *testing.T) {
	for _, name := range []string{"pfl-simclr[ln]", "fedavg[ln]", "calibre-simclr[bogus]", "calibre-simclr[ln]{fixed-k}"} {
		_, _, err := baselines.Resolve(name)
		if err == nil {
			t.Fatalf("Resolve(%s) accepted", name)
		}
		for _, s := range baselines.VariantSuffixes() {
			if !strings.Contains(err.Error(), s) {
				t.Fatalf("Resolve(%s): error does not list %s: %v", name, s, err)
			}
		}
	}
	if _, _, err := baselines.Resolve("calibre-nope[ln]"); err == nil {
		t.Fatal("a suffix on an unknown SSL flavour accepted")
	}
}

// The all-on variants are calibre-simclr under another name: one smoke
// federation each ends on the same global bits and the same accuracies,
// where one regularizer switched off ([ln]) ends elsewhere.
func TestAllOnVariantsTrainAsCalibre(t *testing.T) {
	setting := experiments.Settings()["cifar10-q(2,500)"]
	env, err := experiments.BuildEnvironment(setting, experiments.ScaleSmoke, 42)
	if err != nil {
		t.Fatal(err)
	}
	env.Novel = nil
	ref, err := experiments.RunMethod(context.Background(), env, "calibre-simclr")
	if err != nil {
		t.Fatal(err)
	}
	for name, wantSame := range map[string]bool{"calibre-simclr[ln+lp]": true, "calibre-simclr{full}": true, "calibre-simclr[ln]": false} {
		out, err := experiments.RunMethod(context.Background(), env, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.Method != name {
			t.Fatalf("%s: outcome named %q", name, out.Method)
		}
		same := slices.EqualFunc(out.Global, ref.Global, func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}) && slices.Equal(out.Participants.Accs, ref.Participants.Accs)
		if same != wantSame {
			t.Fatalf("%s: same global and accuracies as calibre-simclr = %v, want %v", name, same, wantSame)
		}
	}
}

// Resolving a registry name reads a table built once: a sweep resolves
// every cell's method while it plans, so the lookup allocates nothing.
func TestResolveRegistryNameAllocatesNothing(t *testing.T) {
	for _, name := range []string{"fedavg", "calibre-simclr", "pfl-byol"} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, _, err := baselines.Resolve(name); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("Resolve(%q) allocates %v times a call, want 0", name, allocs)
		}
	}
}
