package health

import (
	"fmt"
	"strings"

	"calibre/internal/spec"
)

// Detector defaults. Enabled rules with zero-valued knobs are filled
// from these by NewMonitor, so Config{Divergence: true} means "the
// divergence rule at stock thresholds".
const (
	DefaultDivergenceFactor = 1.5
	DefaultDivergenceWarmup = 3
	DefaultPlateauWindow    = 16
	DefaultPlateauEps       = 1e-3
	DefaultFairnessFactor   = 0.5
	DefaultFairnessWarmup   = 5
	DefaultNormZThreshold   = 3.5
	DefaultSuspectAfter     = 2
	DefaultQuorumRate       = 0.5
	DefaultQuorumWarmup     = 4
	DefaultMaxClients       = 4096
	DefaultMaxAlerts        = 1024
)

// Config selects and parameterizes the detectors a Monitor runs. The
// textual form handled by ParseRules / Config.Rules is the comma-joined
// rule list, e.g.
//
//	non-finite,loss-divergence(1.5,3),norm-z(3.5,2)
//
// Rule knobs are positional and optional; MaxClients and MaxAlerts are
// engine-level knobs outside the rule grammar.
type Config struct {
	// NonFinite raises SevCrit when a NaN/Inf appears in the loss or
	// update-norm stream.
	NonFinite bool
	// Divergence raises SevWarn when the smoothed federation loss rises
	// more than DivergenceFactor × |best| above its best, after
	// DivergenceWarmup rounds.
	Divergence       bool
	DivergenceFactor float64
	DivergenceWarmup int
	// Plateau raises SevInfo when loss improves less than PlateauEps
	// (relative) over a full PlateauWindow-round window.
	Plateau       bool
	PlateauWindow int
	PlateauEps    float64
	// Fairness raises SevWarn when the smoothed worst-decile loss gap
	// exceeds FairnessFactor × |smoothed loss|, after FairnessWarmup
	// rounds.
	Fairness       bool
	FairnessFactor float64
	FairnessWarmup int
	// NormZ flags clients whose update norm is a robust (median/MAD)
	// z-score outlier beyond NormZThreshold; a client outlying in
	// SuspectAfter rounds is declared a suspect (SevCrit).
	NormZ          bool
	NormZThreshold float64
	SuspectAfter   int
	// Quorum raises SevWarn when the smoothed straggler rate exceeds
	// QuorumStragglerRate (after QuorumWarmup rounds) or QuorumWarmup
	// consecutive rounds close by deadline expiry.
	Quorum              bool
	QuorumStragglerRate float64
	QuorumWarmup        int

	// MaxClients bounds the per-client LRU table (default 4096);
	// MaxAlerts bounds retained alerts (default 1024, oldest dropped).
	MaxClients int
	MaxAlerts  int
}

// DefaultConfig returns every detector enabled at stock thresholds —
// what `-health default` means on the CLIs.
func DefaultConfig() Config {
	c := Config{NonFinite: true, Divergence: true, Plateau: true, Fairness: true, NormZ: true, Quorum: true}
	c.normalize()
	return c
}

// rule is one detector of the spec grammar: its name, its Config switch
// and its positional arguments, each bound to its Config field.
type rule struct {
	name string
	on   *bool
	args []spec.Slot
}

func positive(f float64) bool { return f > 0 }

func atLeast(min int) func(int) bool { return func(n int) bool { return n >= min } }

// rules is c's detector table, in canonical spec order.
func (c *Config) rules() []rule {
	return []rule{
		{"non-finite", &c.NonFinite, nil},
		{"loss-divergence", &c.Divergence, []spec.Slot{
			spec.Float("factor", &c.DivergenceFactor, DefaultDivergenceFactor, positive),
			spec.Int("warmup", &c.DivergenceWarmup, DefaultDivergenceWarmup, atLeast(1))}},
		{"plateau", &c.Plateau, []spec.Slot{
			spec.Int("window", &c.PlateauWindow, DefaultPlateauWindow, atLeast(2)),
			spec.Float("eps", &c.PlateauEps, DefaultPlateauEps, positive)}},
		{"fairness-drift", &c.Fairness, []spec.Slot{
			spec.Float("factor", &c.FairnessFactor, DefaultFairnessFactor, positive),
			spec.Int("warmup", &c.FairnessWarmup, DefaultFairnessWarmup, atLeast(1))}},
		{"norm-z", &c.NormZ, []spec.Slot{
			spec.Float("threshold", &c.NormZThreshold, DefaultNormZThreshold, positive),
			spec.Int("suspect-after", &c.SuspectAfter, DefaultSuspectAfter, atLeast(1))}},
		{"quorum", &c.Quorum, []spec.Slot{
			spec.Float("straggler-rate", &c.QuorumStragglerRate, DefaultQuorumRate, func(f float64) bool { return f > 0 && f <= 1 }),
			spec.Int("warmup", &c.QuorumWarmup, DefaultQuorumWarmup, atLeast(1))}},
	}
}

// normalize gives every knob outside the range ParseRules accepts — a
// zero-valued one included — its default, enabled rule or not.
func (c *Config) normalize() {
	for _, r := range c.rules() {
		spec.Default(r.args...)
	}
	if c.MaxClients < 1 {
		c.MaxClients = DefaultMaxClients
	}
	if c.MaxAlerts < 1 {
		c.MaxAlerts = DefaultMaxAlerts
	}
}

// Rules renders the enabled rules as the canonical spec string —
// ParseRules(c.Rules()) reproduces c's rule selection and thresholds
// exactly (the round-trip the fuzz harness pins).
func (c Config) Rules() string {
	c.normalize()
	var parts []string
	for _, r := range c.rules() {
		if *r.on {
			parts = append(parts, spec.Format(r.name, r.args...))
		}
	}
	return strings.Join(parts, ",")
}

// ParseRules parses a rule spec — a comma-separated list of rules in the
// spec grammar (internal/spec) — into a Config. The special spec
// "default" (or "all") selects DefaultConfig. The rules and their
// optional positional arguments:
//
//	non-finite
//	loss-divergence(factor[,warmupRounds])
//	plateau(windowRounds[,relEps])
//	fairness-drift(factor[,warmupRounds])
//	norm-z(zThreshold[,suspectAfterRounds])
//	quorum(stragglerRate[,warmupRounds])
//
// Omitted arguments take the Default* values. ParseRules(c.Rules())
// reproduces c, normalized, for every c with a rule enabled.
func ParseRules(s string) (Config, error) {
	s = strings.TrimSpace(s)
	if s == "default" || s == "all" {
		return DefaultConfig(), nil
	}
	var c Config
	table := c.rules()
	for _, item := range spec.List(s) {
		if err := bindRule(table, item); err != nil {
			return Config{}, fmt.Errorf("health: rule spec %q: %w", s, err)
		}
	}
	c.normalize()
	return c, nil
}

// bindRule enables the rule of table that item names and binds its
// arguments.
func bindRule(table []rule, item string) error {
	name, args, err := spec.Split(item)
	if err != nil {
		return err
	}
	for _, r := range table {
		if r.name != name {
			continue
		}
		if *r.on {
			return fmt.Errorf("duplicate rule %s", name)
		}
		*r.on = true
		if err := spec.Bind(args, r.args...); err != nil {
			return fmt.Errorf("%s %w", name, err)
		}
		return nil
	}
	return fmt.Errorf("unknown rule %q", name)
}
