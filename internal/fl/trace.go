package fl

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"calibre/internal/spec"
)

// TraceKind names one availability-trace generator.
type TraceKind string

// The availability models. Each maps (round, client) to a dropout
// probability: one flat rate, or the correlated churn real federations
// exhibit.
const (
	// TraceFlat is independent dropout: every client drops out of every
	// round with probability Base, which must be below 1.
	TraceFlat TraceKind = "flat"
	// TraceDiurnal is the day/night sine: the drop probability oscillates
	// between Base and Base+Amp with period Period rounds.
	TraceDiurnal TraceKind = "diurnal"
	// TraceFlash is the flash-crowd burst: Base everywhere except a burst
	// window of Width rounds starting at round Period, where the drop
	// probability jumps to Base+Amp.
	TraceFlash TraceKind = "flash"
	// TraceMarkov is correlated churn: clients are paired (pair = id/2) and
	// each pair shares a two-state seeded Markov chain — up→down with
	// probability PDown, down→up with probability PUp. A down pair drops
	// with probability 1, an up pair with probability Base, so paired
	// clients churn together.
	TraceMarkov TraceKind = "markov"
)

// TraceConfig declares a deterministic availability trace. Field use varies
// by Kind (see the kind constants); unused fields must be zero. The
// per-round probabilities are a pure function of (seed, round, client), so
// traced runs replay and resume bit-identically.
type TraceConfig struct {
	Kind TraceKind
	// Base is the baseline drop probability, in [0,1].
	Base float64
	// Amp is the extra drop probability at the diurnal peak or inside the
	// flash burst (the instantaneous probability is clamped to [0,1]).
	Amp float64
	// Period is the diurnal period in rounds (≥1), or the flash burst
	// start round (≥0).
	Period int
	// Width is the flash burst length in rounds (≥1).
	Width int
	// PDown and PUp are the markov up→down and down→up transition
	// probabilities; PUp must be >0 so no pair is down forever.
	PDown, PUp float64
}

// Validate checks the configuration.
func (c *TraceConfig) Validate() error {
	if c == nil {
		return nil
	}
	bad := func(field string, v float64) error {
		return fmt.Errorf("fl: trace %s must be a probability in [0,1], got %g", field, v)
	}
	if c.Kind == TraceFlat && !(c.Base >= 0 && c.Base < 1) {
		return fmt.Errorf("fl: flat trace dropout rate must be in [0,1), got %v", c.Base)
	}
	if c.Base < 0 || c.Base > 1 || math.IsNaN(c.Base) {
		return bad("base", c.Base)
	}
	switch c.Kind {
	case TraceFlat:
		if c.Amp != 0 || c.Period != 0 || c.Width != 0 || c.PDown != 0 || c.PUp != 0 {
			return fmt.Errorf("fl: flat trace uses only base")
		}
	case TraceDiurnal:
		if c.Amp < 0 || c.Amp > 1 || math.IsNaN(c.Amp) {
			return bad("amp", c.Amp)
		}
		if c.Period < 1 {
			return fmt.Errorf("fl: diurnal trace period must be ≥1 round, got %d", c.Period)
		}
		if c.Width != 0 || c.PDown != 0 || c.PUp != 0 {
			return fmt.Errorf("fl: diurnal trace uses only base, amp and period")
		}
	case TraceFlash:
		if c.Amp < 0 || c.Amp > 1 || math.IsNaN(c.Amp) {
			return bad("amp", c.Amp)
		}
		if c.Period < 0 {
			return fmt.Errorf("fl: flash trace start round must be ≥0, got %d", c.Period)
		}
		if c.Width < 1 {
			return fmt.Errorf("fl: flash trace width must be ≥1 round, got %d", c.Width)
		}
		if c.PDown != 0 || c.PUp != 0 {
			return fmt.Errorf("fl: flash trace uses only base, amp, start and width")
		}
	case TraceMarkov:
		if c.PDown < 0 || c.PDown > 1 || math.IsNaN(c.PDown) {
			return bad("pdown", c.PDown)
		}
		if c.PUp <= 0 || c.PUp > 1 || math.IsNaN(c.PUp) {
			return fmt.Errorf("fl: markov trace pup must be in (0,1] so pairs recover, got %g", c.PUp)
		}
		if c.Amp != 0 || c.Period != 0 || c.Width != 0 {
			return fmt.Errorf("fl: markov trace uses only base, pdown and pup")
		}
	default:
		return fmt.Errorf("fl: unknown trace kind %q (want flat, diurnal, flash or markov)", c.Kind)
	}
	return nil
}

// args lists the kind's spec arguments in order; nil for an unknown kind.
func (c *TraceConfig) args() []spec.Slot {
	base := spec.Float("base", &c.Base, 0, nil)
	switch c.Kind {
	case TraceFlat:
		return []spec.Slot{base}
	case TraceDiurnal:
		return []spec.Slot{base, spec.Float("amp", &c.Amp, 0, nil), spec.Int("period", &c.Period, 0, nil)}
	case TraceFlash:
		return []spec.Slot{base, spec.Float("amp", &c.Amp, 0, nil), spec.Int("start", &c.Period, 0, nil), spec.Int("width", &c.Width, 0, nil)}
	case TraceMarkov:
		return []spec.Slot{base, spec.Float("pdown", &c.PDown, 0, nil), spec.Float("pup", &c.PUp, 0, nil)}
	}
	return nil
}

// String renders the canonical spec accepted by ParseTrace.
func (c *TraceConfig) String() string {
	if c == nil {
		return ""
	}
	return spec.Format(string(c.Kind), c.args()...)
}

// ParseTrace parses an availability-trace spec (internal/spec grammar;
// every argument is required):
//
//	flat(base)                   — every client, every round, base < 1
//	diurnal(base,amp,period)     — sine between base and base+amp
//	flash(base,amp,start,width)  — base, spiking to base+amp in the burst
//	markov(base,pdown,pup)       — paired correlated churn
//
// The empty string means no trace (nil). Parse∘String round-trips.
func ParseTrace(s string) (*TraceConfig, error) {
	if s == "" {
		return nil, nil
	}
	name, args, err := spec.Split(s)
	if err != nil {
		return nil, fmt.Errorf("fl: trace spec: %w", err)
	}
	cfg := &TraceConfig{Kind: TraceKind(name)}
	slots := cfg.args()
	if slots == nil {
		return nil, fmt.Errorf("fl: unknown trace kind %q (want flat, diurnal, flash or markov)", name)
	}
	if len(args) != len(slots) {
		return nil, fmt.Errorf("fl: trace spec %q: want %d args, got %d", s, len(slots), len(args))
	}
	if err := spec.Bind(args, slots...); err != nil {
		return nil, fmt.Errorf("fl: trace spec %q: %w", s, err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// traceSalt decorrelates markov chain streams from the training and attack
// streams derived from the same master seed.
const traceSalt int64 = 0x54524143 // "TRAC"

// Generator builds the runtime trace for one seeded run. The returned
// TraceGen is safe for concurrent use.
func (c *TraceConfig) Generator(seed int64) *TraceGen {
	if c == nil {
		return nil
	}
	return &TraceGen{cfg: *c, seed: seed}
}

// TraceGen evaluates a TraceConfig for one run. DropProb is a pure function
// of (round, client) given the construction seed: markov chains are
// advanced lazily per pair and memoized, so any query order — including the
// replay a resumed run performs — observes identical probabilities.
type TraceGen struct {
	cfg  TraceConfig
	seed int64

	mu     sync.Mutex
	chains map[int]*markovChain
}

// markovChain is the memoized up/down history of one client pair.
type markovChain struct {
	rng *rand.Rand
	// down[r] is the pair's state at round r; round 0 is always up.
	down []bool
}

// DropProb returns the probability that client drops out of round.
func (g *TraceGen) DropProb(round, client int) float64 {
	if g == nil {
		return 0
	}
	clamp := func(p float64) float64 {
		return math.Min(1, math.Max(0, p))
	}
	switch g.cfg.Kind {
	case TraceFlat:
		return g.cfg.Base
	case TraceDiurnal:
		phase := 2 * math.Pi * float64(round) / float64(g.cfg.Period)
		return clamp(g.cfg.Base + g.cfg.Amp*(1+math.Sin(phase))/2)
	case TraceFlash:
		if round >= g.cfg.Period && round < g.cfg.Period+g.cfg.Width {
			return clamp(g.cfg.Base + g.cfg.Amp)
		}
		return clamp(g.cfg.Base)
	case TraceMarkov:
		if g.pairDown(client/2, round) {
			return 1
		}
		return clamp(g.cfg.Base)
	default:
		return 0
	}
}

// pairDown reports whether the pair's chain is down at the given round,
// extending the memoized history as needed.
func (g *TraceGen) pairDown(pair, round int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.chains == nil {
		g.chains = make(map[int]*markovChain)
	}
	ch := g.chains[pair]
	if ch == nil {
		ch = &markovChain{
			rng:  rand.New(rand.NewSource(g.seed ^ traceSalt ^ int64(pair)*5_000_011)),
			down: []bool{false},
		}
		g.chains[pair] = ch
	}
	// Extend strictly sequentially so the per-pair stream consumption — and
	// therefore every state — is independent of query order.
	for len(ch.down) <= round {
		prev := ch.down[len(ch.down)-1]
		draw := ch.rng.Float64()
		if prev {
			ch.down = append(ch.down, draw >= g.cfg.PUp)
		} else {
			ch.down = append(ch.down, draw < g.cfg.PDown)
		}
	}
	return ch.down[round]
}
