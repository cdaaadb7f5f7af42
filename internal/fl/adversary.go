package fl

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"calibre/internal/param"
	"calibre/internal/partition"
	"calibre/internal/spec"
)

// AdversaryKind names one attack model.
type AdversaryKind string

// The attack taxonomy (see ARCHITECTURE.md "Threat model & robust
// aggregation").
const (
	// AdvSignFlip trains honestly, then ships the update reflected through
	// the global vector scaled by Scale — the classic gradient-reversal
	// poison.
	AdvSignFlip AdversaryKind = "sign-flip"
	// AdvNoise skips local training and ships the global vector plus
	// Scale-scaled gaussian noise drawn from the attack RNG.
	AdvNoise AdversaryKind = "noise"
	// AdvCollude makes every compromised client in a round ship the same
	// noise vector (seeded per round, not per client) — the same-value
	// collusion that defeats plain per-update outlier filters.
	AdvCollude AdversaryKind = "collude"
	// AdvLabelFlip trains honestly but on label-flipped local data
	// (y → NumClasses−1−y), the stealthy data-poisoning attack.
	AdvLabelFlip AdversaryKind = "label-flip"
)

// Adversary places a deterministic fraction of the client population under
// adversarial control. Which clients are compromised, and every byte they
// send, is a pure function of (seed, round, client), so hostile runs are
// exactly as reproducible — and as resumable — as benign ones.
type Adversary struct {
	Kind AdversaryKind
	// Scale is the attack magnitude (reflection factor for sign-flip,
	// noise std for noise/collude); ≤0 means 1. Label-flip ignores it.
	Scale float64
	// Frac is the fraction of the population compromised, in [0,1]. The
	// compromised set is the first round(Frac·n) entries of a seeded
	// permutation (at least one when Frac > 0), fixed for the whole run.
	Frac float64
}

// Validate checks the configuration.
func (a *Adversary) Validate() error {
	if a == nil {
		return nil
	}
	switch a.Kind {
	case AdvSignFlip, AdvNoise, AdvCollude, AdvLabelFlip:
	default:
		return fmt.Errorf("fl: unknown adversary kind %q (want sign-flip, noise, collude or label-flip)", a.Kind)
	}
	if a.Scale < 0 || math.IsNaN(a.Scale) || math.IsInf(a.Scale, 0) {
		return fmt.Errorf("fl: adversary scale must be a finite value ≥0, got %g", a.Scale)
	}
	return CheckFrac(a.Frac)
}

// CheckFrac is Validate's rule for a compromised fraction: in [0,1]. A
// configuration that names a fraction without an attack (an honest sweep
// cell) is held to it too.
func CheckFrac(frac float64) error {
	if !(frac >= 0 && frac <= 1) {
		return fmt.Errorf("fl: adversary frac must be in [0,1], got %g", frac)
	}
	return nil
}

// scale resolves the magnitude default.
func (a *Adversary) scale() float64 {
	if a.Scale <= 0 {
		return 1
	}
	return a.Scale
}

// scaleArg is the spec's one optional argument, the attack scale; it is 0,
// unset, when omitted.
func (a *Adversary) scaleArg() spec.Slot {
	return spec.Float("scale", &a.Scale, 0, func(v float64) bool { return v > 0 })
}

// String renders the kind+scale spec accepted by ParseAdversary (Frac is
// carried separately — it is its own sweep axis).
func (a *Adversary) String() string {
	if a == nil {
		return ""
	}
	if a.Scale == 0 {
		return string(a.Kind)
	}
	return spec.Format(string(a.Kind), a.scaleArg())
}

// ParseAdversary parses an attack spec (internal/spec grammar): a kind
// name with an optional scale — "sign-flip", "sign-flip(3)",
// "noise(0.5)", "collude", "label-flip". The empty string means no
// adversary (nil). Frac is set separately by the caller. Parse∘String
// round-trips.
func ParseAdversary(s string) (*Adversary, error) {
	if s == "" {
		return nil, nil
	}
	name, args, err := spec.Split(s)
	if err != nil {
		return nil, fmt.Errorf("fl: adversary spec: %w", err)
	}
	a := &Adversary{Kind: AdversaryKind(name)}
	if err := spec.Bind(args, a.scaleArg()); err != nil {
		return nil, fmt.Errorf("fl: adversary spec %q: %w", s, err)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if a.Kind == AdvLabelFlip && a.Scale != 0 {
		return nil, fmt.Errorf("fl: label-flip takes no scale, got %q", s)
	}
	return a, nil
}

// advSalt decorrelates adversary RNG streams from the training streams
// derived from the same master seed.
const advSalt int64 = 0x41445653 // "ADVS"

// attackRNG derives the deterministic per-(round, client) attack stream;
// clientID −1 is the shared per-round collusion stream.
func attackRNG(seed int64, round, clientID int) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ advSalt ^ int64(round)*2_000_003 ^ int64(clientID)*9_999_973))
}

// Malicious returns the compromised client indices for a population of n:
// the first round(Frac·n) entries (at least 1 when Frac > 0) of a
// permutation drawn from the seeded adversary stream, sorted. It is a pure
// function of (seed, n, Frac) — the "seeded trace" that makes hostile runs
// reproducible.
func (a *Adversary) Malicious(seed int64, n int) []int {
	if a == nil || a.Frac <= 0 || n <= 0 {
		return nil
	}
	k := int(math.Round(a.Frac * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	rng := rand.New(rand.NewSource(seed ^ advSalt))
	ids := append([]int(nil), rng.Perm(n)[:k]...)
	sort.Ints(ids)
	return ids
}

// WrapTrainer returns a trainer that behaves like inner for honest clients
// and mounts the configured attack for the compromised set drawn from
// (seed, numClients). The wrapper is stateless across rounds (its only
// cache memoizes the pure label-flip transform), so wrapping never makes a
// resumable method stateful.
func (a *Adversary) WrapTrainer(inner Trainer, seed int64, numClients int) Trainer {
	if a == nil || a.Frac <= 0 {
		return inner
	}
	mal := make(map[int]bool)
	for _, id := range a.Malicious(seed, numClients) {
		mal[id] = true
	}
	return &adversaryTrainer{inner: inner, cfg: *a, seed: seed, malicious: mal}
}

// adversaryTrainer is the Trainer wrapper WrapTrainer installs.
type adversaryTrainer struct {
	inner     Trainer
	cfg       Adversary
	seed      int64
	malicious map[int]bool

	mu      sync.Mutex
	flipped map[int]*partition.Client // label-flip memo, keyed by client ID
}

// Train implements Trainer.
func (t *adversaryTrainer) Train(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector, round int) (*Update, error) {
	if !t.malicious[client.ID] {
		return t.inner.Train(ctx, rng, client, global, round)
	}
	switch t.cfg.Kind {
	case AdvSignFlip:
		u, err := t.inner.Train(ctx, rng, client, global, round)
		if err != nil {
			return nil, err
		}
		if len(u.Params) != len(global) {
			return u, nil // let ingress validation reject it with the typed error
		}
		p := param.Borrow(len(global))
		s := t.cfg.scale()
		for i := range p {
			p[i] = global[i] - s*(u.Params[i]-global[i])
		}
		u.GiveBack() // the honest payload, if it was Lent: p replaces it
		u.Params, u.ControlDelta, u.Lent = p, nil, true
		return u, nil
	case AdvNoise:
		arng := attackRNG(t.seed, round, client.ID)
		return t.noiseUpdate(client, global, arng), nil
	case AdvCollude:
		// Every colluder derives the identical round vector: the stream is
		// keyed by round only.
		arng := attackRNG(t.seed, round, -1)
		return t.noiseUpdate(client, global, arng), nil
	case AdvLabelFlip:
		return t.inner.Train(ctx, rng, t.flipClient(client), global, round)
	default:
		return nil, fmt.Errorf("fl: unknown adversary kind %q", t.cfg.Kind)
	}
}

// noiseUpdate fabricates global + Scale·gaussian without training, in a
// vector it borrows (and overwrites whole).
func (t *adversaryTrainer) noiseUpdate(client *partition.Client, global param.Vector, arng *rand.Rand) *Update {
	p := param.Borrow(len(global))
	s := t.cfg.scale()
	for i := range p {
		p[i] = global[i] + s*arng.NormFloat64()
	}
	n := 1
	if client.Train != nil {
		n = client.Train.Len()
	}
	return &Update{ClientID: client.ID, Params: p, NumSamples: n, Lent: true}
}

// flipClient returns the client with its training labels flipped
// (y → NumClasses−1−y; unlabeled samples stay unlabeled). Features are
// shared, only the label slice is copied; the result is memoized so
// trainers that key per-client caches see a stable dataset.
func (t *adversaryTrainer) flipClient(c *partition.Client) *partition.Client {
	t.mu.Lock()
	defer t.mu.Unlock()
	if fc, ok := t.flipped[c.ID]; ok {
		return fc
	}
	fc := &partition.Client{ID: c.ID, Train: c.Train, Test: c.Test, Unlabeled: c.Unlabeled}
	if c.Train != nil {
		ds := *c.Train
		ds.Y = make([]int, len(c.Train.Y))
		for i, y := range c.Train.Y {
			if y >= 0 && y < ds.NumClasses {
				ds.Y[i] = ds.NumClasses - 1 - y
			} else {
				ds.Y[i] = y
			}
		}
		fc.Train = &ds
	}
	if t.flipped == nil {
		t.flipped = make(map[int]*partition.Client)
	}
	t.flipped[c.ID] = fc
	return fc
}
