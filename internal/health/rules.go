package health

import (
	"fmt"
	"strconv"
	"strings"
)

// Detector defaults. Enabled rules with zero-valued knobs are filled
// from these by NewMonitor, so Config{Divergence: true} means "the
// divergence rule at stock thresholds".
const (
	DefaultAlpha            = 0.3
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
// Rule knobs are positional and optional; Alpha, MaxClients and
// MaxAlerts are engine-level knobs outside the rule grammar.
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

	// Alpha is the EWMA smoothing factor shared by every trend detector
	// (0 < Alpha ≤ 1; default 0.3).
	Alpha float64
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

// normalize fills zero-valued knobs of enabled rules and engine knobs
// with their defaults.
func (c *Config) normalize() {
	if c.DivergenceFactor <= 0 {
		c.DivergenceFactor = DefaultDivergenceFactor
	}
	if c.DivergenceWarmup <= 0 {
		c.DivergenceWarmup = DefaultDivergenceWarmup
	}
	if c.PlateauWindow < 2 {
		c.PlateauWindow = DefaultPlateauWindow
	}
	if c.PlateauEps <= 0 {
		c.PlateauEps = DefaultPlateauEps
	}
	if c.FairnessFactor <= 0 {
		c.FairnessFactor = DefaultFairnessFactor
	}
	if c.FairnessWarmup <= 0 {
		c.FairnessWarmup = DefaultFairnessWarmup
	}
	if c.NormZThreshold <= 0 {
		c.NormZThreshold = DefaultNormZThreshold
	}
	if c.SuspectAfter < 1 {
		c.SuspectAfter = DefaultSuspectAfter
	}
	if c.QuorumStragglerRate <= 0 {
		c.QuorumStragglerRate = DefaultQuorumRate
	}
	if c.QuorumWarmup <= 0 {
		c.QuorumWarmup = DefaultQuorumWarmup
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = DefaultAlpha
	}
	if c.MaxClients < 1 {
		c.MaxClients = DefaultMaxClients
	}
	if c.MaxAlerts < 1 {
		c.MaxAlerts = DefaultMaxAlerts
	}
}

func fnum(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// Rules renders the enabled rules as the canonical spec string —
// ParseRules(c.Rules()) reproduces c's rule selection and thresholds
// exactly (the round-trip the fuzz harness pins).
func (c Config) Rules() string {
	n := c
	n.normalize()
	var parts []string
	if n.NonFinite {
		parts = append(parts, "non-finite")
	}
	if n.Divergence {
		parts = append(parts, fmt.Sprintf("loss-divergence(%s,%d)", fnum(n.DivergenceFactor), n.DivergenceWarmup))
	}
	if n.Plateau {
		parts = append(parts, fmt.Sprintf("plateau(%d,%s)", n.PlateauWindow, fnum(n.PlateauEps)))
	}
	if n.Fairness {
		parts = append(parts, fmt.Sprintf("fairness-drift(%s,%d)", fnum(n.FairnessFactor), n.FairnessWarmup))
	}
	if n.NormZ {
		parts = append(parts, fmt.Sprintf("norm-z(%s,%d)", fnum(n.NormZThreshold), n.SuspectAfter))
	}
	if n.Quorum {
		parts = append(parts, fmt.Sprintf("quorum(%s,%d)", fnum(n.QuorumStragglerRate), n.QuorumWarmup))
	}
	return strings.Join(parts, ",")
}

// ParseRules parses a rule spec — a comma-separated list of rule names
// with optional positional arguments — into a Config. The special spec
// "default" (or "all") selects DefaultConfig. Grammar per rule:
//
//	non-finite
//	loss-divergence(factor[,warmupRounds])
//	plateau(windowRounds[,relEps])
//	fairness-drift(factor[,warmupRounds])
//	norm-z(zThreshold[,suspectAfterRounds])
//	quorum(stragglerRate[,warmupRounds])
//
// Omitted arguments take the Default* values. ParseRules(c.Rules())
// round-trips for every valid c.
func ParseRules(spec string) (Config, error) {
	var c Config
	s := strings.TrimSpace(spec)
	if s == "default" || s == "all" {
		return DefaultConfig(), nil
	}
	if s == "" {
		return c, fmt.Errorf("health: empty rule spec")
	}
	for _, item := range splitRules(s) {
		item = strings.TrimSpace(item)
		if item == "" {
			return c, fmt.Errorf("health: empty rule in spec %q", spec)
		}
		name, args, err := splitRule(item)
		if err != nil {
			return c, err
		}
		switch name {
		case "non-finite":
			if len(args) != 0 {
				return c, fmt.Errorf("health: non-finite takes no arguments")
			}
			if c.NonFinite {
				return c, fmt.Errorf("health: duplicate rule non-finite")
			}
			c.NonFinite = true
		case "loss-divergence":
			if c.Divergence {
				return c, fmt.Errorf("health: duplicate rule loss-divergence")
			}
			c.Divergence = true
			if err := takeFloat(args, 0, &c.DivergenceFactor, func(f float64) bool { return f > 0 }); err != nil {
				return c, fmt.Errorf("loss-divergence factor: %w", err)
			}
			if err := takeInt(args, 1, &c.DivergenceWarmup, func(n int) bool { return n >= 1 }); err != nil {
				return c, fmt.Errorf("loss-divergence warmup: %w", err)
			}
			if len(args) > 2 {
				return c, fmt.Errorf("health: loss-divergence takes at most 2 arguments")
			}
		case "plateau":
			if c.Plateau {
				return c, fmt.Errorf("health: duplicate rule plateau")
			}
			c.Plateau = true
			if err := takeInt(args, 0, &c.PlateauWindow, func(n int) bool { return n >= 2 }); err != nil {
				return c, fmt.Errorf("plateau window: %w", err)
			}
			if err := takeFloat(args, 1, &c.PlateauEps, func(f float64) bool { return f > 0 }); err != nil {
				return c, fmt.Errorf("plateau eps: %w", err)
			}
			if len(args) > 2 {
				return c, fmt.Errorf("health: plateau takes at most 2 arguments")
			}
		case "fairness-drift":
			if c.Fairness {
				return c, fmt.Errorf("health: duplicate rule fairness-drift")
			}
			c.Fairness = true
			if err := takeFloat(args, 0, &c.FairnessFactor, func(f float64) bool { return f > 0 }); err != nil {
				return c, fmt.Errorf("fairness-drift factor: %w", err)
			}
			if err := takeInt(args, 1, &c.FairnessWarmup, func(n int) bool { return n >= 1 }); err != nil {
				return c, fmt.Errorf("fairness-drift warmup: %w", err)
			}
			if len(args) > 2 {
				return c, fmt.Errorf("health: fairness-drift takes at most 2 arguments")
			}
		case "norm-z":
			if c.NormZ {
				return c, fmt.Errorf("health: duplicate rule norm-z")
			}
			c.NormZ = true
			if err := takeFloat(args, 0, &c.NormZThreshold, func(f float64) bool { return f > 0 }); err != nil {
				return c, fmt.Errorf("norm-z threshold: %w", err)
			}
			if err := takeInt(args, 1, &c.SuspectAfter, func(n int) bool { return n >= 1 }); err != nil {
				return c, fmt.Errorf("norm-z suspect-after: %w", err)
			}
			if len(args) > 2 {
				return c, fmt.Errorf("health: norm-z takes at most 2 arguments")
			}
		case "quorum":
			if c.Quorum {
				return c, fmt.Errorf("health: duplicate rule quorum")
			}
			c.Quorum = true
			if err := takeFloat(args, 0, &c.QuorumStragglerRate, func(f float64) bool { return f > 0 && f <= 1 }); err != nil {
				return c, fmt.Errorf("quorum straggler-rate: %w", err)
			}
			if err := takeInt(args, 1, &c.QuorumWarmup, func(n int) bool { return n >= 1 }); err != nil {
				return c, fmt.Errorf("quorum warmup: %w", err)
			}
			if len(args) > 2 {
				return c, fmt.Errorf("health: quorum takes at most 2 arguments")
			}
		default:
			return c, fmt.Errorf("health: unknown rule %q", name)
		}
	}
	c.normalize()
	return c, nil
}

// splitRules splits a spec on commas that are not inside parentheses.
func splitRules(s string) []string {
	var out []string
	depth, start := 0, 0
	for i, r := range s {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// splitRule splits "name(a,b)" into name and trimmed argument strings.
func splitRule(item string) (string, []string, error) {
	open := strings.IndexByte(item, '(')
	if open < 0 {
		if strings.ContainsAny(item, ")") {
			return "", nil, fmt.Errorf("health: malformed rule %q", item)
		}
		return item, nil, nil
	}
	if !strings.HasSuffix(item, ")") {
		return "", nil, fmt.Errorf("health: malformed rule %q (missing closing parenthesis)", item)
	}
	name := strings.TrimSpace(item[:open])
	body := item[open+1 : len(item)-1]
	if strings.ContainsAny(body, "()") {
		return "", nil, fmt.Errorf("health: malformed rule %q", item)
	}
	if strings.TrimSpace(body) == "" {
		return name, nil, nil
	}
	parts := strings.Split(body, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
		if parts[i] == "" {
			return "", nil, fmt.Errorf("health: empty argument in rule %q", item)
		}
	}
	return name, parts, nil
}

// takeFloat parses args[i] into *dst when present, enforcing ok.
func takeFloat(args []string, i int, dst *float64, ok func(float64) bool) error {
	if i >= len(args) {
		return nil
	}
	f, err := strconv.ParseFloat(args[i], 64)
	if err != nil {
		return fmt.Errorf("bad number %q", args[i])
	}
	if !ok(f) || !isFinite(f) {
		return fmt.Errorf("value %v out of range", f)
	}
	*dst = f
	return nil
}

// takeInt parses args[i] into *dst when present, enforcing ok.
func takeInt(args []string, i int, dst *int, ok func(int) bool) error {
	if i >= len(args) {
		return nil
	}
	n, err := strconv.Atoi(args[i])
	if err != nil {
		return fmt.Errorf("bad integer %q", args[i])
	}
	if !ok(n) {
		return fmt.Errorf("value %d out of range", n)
	}
	*dst = n
	return nil
}
