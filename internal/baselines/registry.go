package baselines

import (
	"fmt"
	"sort"
	"strings"

	"calibre/internal/core"
	"calibre/internal/fl"
	"calibre/internal/ssl"
)

// Builder constructs a method given the shared baseline configuration and
// the total client population size (needed by SCAFFOLD's control update).
type Builder func(cfg Config, numClients int) (*fl.Method, error)

// registry holds every baseline and pFL-SSL/Calibre variant evaluated in
// the paper, keyed by the names used in the figures: a pfl-<ssl> and a
// calibre-<ssl> for every flavour ssl registers. Built once; read only.
var registry = func() map[string]Builder {
	reg := map[string]Builder{
		"fedavg":            wrap(NewFedAvg),
		"fedavg-ft":         wrap(NewFedAvgFT),
		"fedprox":           func(cfg Config, _ int) (*fl.Method, error) { return NewFedProx(cfg, defaultProxMu), nil },
		"scaffold":          func(cfg Config, n int) (*fl.Method, error) { return NewScaffold(cfg, n), nil },
		"scaffold-ft":       func(cfg Config, n int) (*fl.Method, error) { return NewScaffoldFT(cfg, n), nil },
		"fedper":            wrap(NewFedPer),
		"fedrep":            wrap(NewFedRep),
		"fedbabu":           wrap(NewFedBABU),
		"lg-fedavg":         wrap(NewLGFedAvg),
		"perfedavg":         wrap(NewPerFedAvg),
		"apfl":              wrap(NewAPFL),
		"ditto":             wrap(NewDitto),
		"fedema":            wrap(NewFedEMA),
		"script-fair":       wrap(NewScriptFair),
		"script-convergent": wrap(NewScriptConvergent),
	}
	for _, sslName := range ssl.MethodNames() {
		reg["pfl-"+sslName] = func(cfg Config, _ int) (*fl.Method, error) {
			return core.NewPFLSSL(sslConfig(cfg, sslName))
		}
		reg["calibre-"+sslName] = func(cfg Config, _ int) (*fl.Method, error) {
			return core.New(sslConfig(cfg, sslName))
		}
	}
	return reg
}()

func wrap(f func(Config) *fl.Method) Builder {
	return func(cfg Config, _ int) (*fl.Method, error) { return f(cfg), nil }
}

func sslConfig(cfg Config, sslName string) core.Config {
	c := core.DefaultConfig(cfg.Arch, sslName, cfg.NumClasses)
	// SSL local updates run twice the supervised epoch budget: the paper
	// trains SSL with batch 256 vs 32 supervised, i.e. a larger per-round
	// compute budget for the self-supervised objective.
	c.Train.Epochs = 2 * cfg.Train.Epochs
	c.Train.BatchSize = cfg.Train.BatchSize
	c.Train.Augment = cfg.Augment
	c.Head = cfg.Head
	if cfg.WarmupRounds > 0 {
		c.Opts.WarmupRounds = cfg.WarmupRounds
	}
	return c
}

// MethodNames lists every registered method name, sorted. Variant names
// (see Resolve) are not listed: they are the calibre-<ssl> names with a
// suffix.
func MethodNames() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// variants are the suffixes a calibre-<ssl> name may carry, one at most: a
// Table I regularizer combination in brackets, or one reproduction design
// choice switched off in braces (ARCHITECTURE.md "Design choices"). Each
// edits the Options the registry's calibre-<ssl> builds with.
var variants = map[string]func(*core.Options){
	"[base]":      func(o *core.Options) { o.UseLn, o.UseLp = false, false },
	"[ln]":        func(o *core.Options) { o.UseLn, o.UseLp = true, false },
	"[lp]":        func(o *core.Options) { o.UseLn, o.UseLp = false, true },
	"[ln+lp]":     func(o *core.Options) { o.UseLn, o.UseLp = true, true },
	"{full}":      func(*core.Options) {},
	"{fixed-k}":   func(o *core.Options) { o.FixedK = true },
	"{no-gate}":   func(o *core.Options) { o.NoQualityGate = true },
	"{no-filter}": func(o *core.Options) { o.KeepFrac = 0 },
	"{no-warmup}": func(o *core.Options) { o.WarmupRounds = -1 }, // regularizers active from round 0
}

// VariantSuffixes lists the suffixes a calibre-<ssl> name may carry,
// sorted.
func VariantSuffixes() []string {
	out := make([]string, 0, len(variants))
	for s := range variants {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Resolve is the one place a method name is given meaning. It returns the
// builder of a registry name, or of a calibre-<ssl> name with one variant
// suffix ("calibre-simclr[ln]", "calibre-swav{fixed-k}"): that starts from
// calibre-<ssl>'s configuration, applies the suffix and names the method
// exactly as requested. It also reports the SSL flavour the method trains,
// "" for a supervised one.
func Resolve(name string) (Builder, string, error) {
	base, suffix := name, ""
	if i := strings.IndexAny(name, "[{"); i > 0 {
		base, suffix = name[:i], name[i:]
	}
	b, ok := registry[base]
	if !ok {
		return nil, "", fmt.Errorf("baselines: unknown method %q (have %v)", name, MethodNames())
	}
	flavour := sslFlavour(base)
	if suffix == "" {
		return b, flavour, nil
	}
	apply, ok := variants[suffix]
	if !ok || !strings.HasPrefix(base, "calibre-") {
		return nil, "", fmt.Errorf("baselines: unknown method %q: only a calibre-<ssl> name takes a suffix, one of %v", name, VariantSuffixes())
	}
	return func(cfg Config, _ int) (*fl.Method, error) {
		c := sslConfig(cfg, flavour)
		apply(&c.Opts)
		m, err := core.New(c)
		if err != nil {
			return nil, err
		}
		m.Name = name
		return m, nil
	}, flavour, nil
}

// sslFlavour is the SSL flavour a registry name trains: the <ssl> of the
// pfl-/calibre- families, BYOL for FedEMA, "" for the supervised methods.
func sslFlavour(name string) string {
	if name == "fedema" {
		return "byol"
	}
	for _, family := range []string{"pfl-", "calibre-"} {
		if s, ok := strings.CutPrefix(name, family); ok {
			return s
		}
	}
	return ""
}

// Build constructs a method by name (see Resolve).
func Build(name string, cfg Config, numClients int) (*fl.Method, error) {
	b, _, err := Resolve(name)
	if err != nil {
		return nil, err
	}
	return b(cfg, numClients)
}
