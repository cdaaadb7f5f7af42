package experiments

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"calibre/internal/fl"
	"calibre/internal/store"
)

// Scenario is one fully specified cell of the paper's evaluation space:
// a method, the non-IID world it trains in (setting, scale, seed) and the
// federation knobs it trains under. It is the one vocabulary every tool
// that assembles a federation speaks — a sweep grid expands into
// Scenarios (sweep.Cell is this type), `calibre serve`, `join` and
// `compare` fill one from their flags — and its JSON names are the ones
// sweep manifests carry. Build is the one place a Scenario becomes a
// runnable federation, so two tools given the same Scenario cannot
// assemble different worlds.
type Scenario struct {
	Method  string `json:"method"`
	Setting string `json:"setting"`
	Scale   Scale  `json:"scale"`
	// Seed seeds the generated world. In a sweep cell it is the replicate
	// index instead, and the scheduler builds the world from EnvSeed.
	Seed      int64   `json:"seed"`
	Quorum    int     `json:"quorum,omitempty"`
	Dropout   float64 `json:"dropout,omitempty"`
	Straggler string  `json:"straggler"`
	// Aggregator is the aggregator override spec (fl.ParseAggregator:
	// "mean", "median", "trimmed(0.2)", "krum(1)"); "" and "mean" keep the
	// method's own aggregator.
	Aggregator string `json:"aggregator,omitempty"`
	// Adversary is the attack spec (fl.ParseAdversary; "" = honest) and
	// AdvFrac the compromised fraction; either being inert zeroes both in
	// an expanded grid.
	Adversary string  `json:"adversary,omitempty"`
	AdvFrac   float64 `json:"adversary_frac,omitempty"`
	// Availability is the availability-trace spec (fl.ParseTrace; "" =
	// flat Dropout governs).
	Availability string `json:"availability,omitempty"`
}

// Key is the scenario's canonical identity: a fixed-order rendering of
// every field. It keys sweep manifests, derives the sweep RNG seed and
// the per-cell checkpoint fingerprint, and sorts reports — which is what
// makes sweep output independent of scheduler interleaving.
func (s Scenario) Key() string {
	return fmt.Sprintf("method=%s|%s|%s", s.Method, s.EnvKey(), s.knobs())
}

func (s Scenario) knobs() string {
	agg := s.Aggregator
	if agg == "" {
		agg = "mean"
	}
	// "delta=false" is what every scenario read on the update-wire axis this
	// vocabulary used to carry. The axis is gone; the literal stays because
	// it is in every cell key and so in everything derived from one — report
	// headings, sweep-cell and grid fingerprints, manifests, per-cell
	// checkpoint directories — and stores and manifests written by earlier
	// builds must still resume.
	return fmt.Sprintf("delta=false|quorum=%d|dropout=%g|straggler=%s|agg=%s|adv=%s|advfrac=%g|avail=%s",
		s.Quorum, s.Dropout, s.Straggler, agg, s.Adversary, s.AdvFrac, s.Availability)
}

// EnvKey identifies the federation world: setting, scale and seed. The
// method and the federation knobs are excluded, so every method in a
// sweep scenario trains on the identical generated data and partition,
// which is what keeps method comparisons apples-to-apples.
func (s Scenario) EnvKey() string {
	return fmt.Sprintf("setting=%s|scale=%s|seed=%d", s.Setting, s.Scale, s.Seed)
}

// EnvSeed derives a sweep cell's master RNG seed from a hash of EnvKey. A
// hash — rather than the raw replicate index — decorrelates scenarios
// that share an index and makes the seed a pure function of the cell's
// identity, independent of execution order.
func (s Scenario) EnvSeed() int64 {
	h := fnv.New64a()
	h.Write([]byte(s.EnvKey()))
	return int64(h.Sum64() & (1<<63 - 1))
}

// Seeded returns the scenario a sweep builds for this cell: the same
// fields with the replicate index replaced by EnvSeed.
func (s Scenario) Seeded() Scenario {
	s.Seed = s.EnvSeed()
	return s
}

// Scenario is the cross-seed grouping key: the identity minus method and
// seed. Cells sharing it differ only in replicate and method, so a sweep
// report aggregates over seeds within it and compares methods across it.
func (s Scenario) Scenario() string {
	return fmt.Sprintf("setting=%s|scale=%s|%s", s.Setting, s.Scale, s.knobs())
}

// Fingerprint is the snapshot fingerprint of a sweep cell's checkpoint
// store.
func (s Scenario) Fingerprint() string {
	return store.Fingerprint("sweep-cell", s.Key())
}

// SettingNames lists the paper's dataset/partition settings, sorted.
func SettingNames() []string {
	m := Settings()
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Environment generates the scenario's world from (Setting, Scale, Seed).
func (s Scenario) Environment() (*Environment, error) {
	setting, ok := Settings()[s.Setting]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown setting %q (have %v)", s.Setting, SettingNames())
	}
	return BuildEnvironment(setting, s.Scale, s.Seed)
}

// World is a built Scenario: everything a runtime needs to run it.
type World struct {
	Scenario Scenario
	Env      *Environment
	// Method is the scenario's method with the aggregator override
	// applied.
	Method *fl.Method
	// Federation holds the scenario's knobs — Quorum, Straggler,
	// Adversary (nil = honest) and Availability (nil = always available)
	// — for either runtime's config to embed; its planes and checkpoint
	// hooks are the caller's to set.
	Federation fl.Federation
}

// Build assembles the scenario's world and method.
func (s Scenario) Build() (*World, error) {
	env, err := s.Environment()
	if err != nil {
		return nil, err
	}
	return s.BuildOn(env)
}

// BuildOn is Build on an environment the caller already holds.
func (s Scenario) BuildOn(env *Environment) (*World, error) {
	m, err := BuildMethod(env, s.Method)
	if err != nil {
		return nil, err
	}
	w := &World{Scenario: s, Env: env, Method: m, Federation: fl.Federation{Quorum: s.Quorum}}
	f := &w.Federation
	if f.Straggler, err = fl.ParseStragglerPolicy(s.Straggler); err != nil {
		return nil, err
	}
	// The override replaces the method's own aggregator; "" and "mean"
	// keep it, so prototype-weighted methods stay themselves in a benign
	// cell. The method is built per call, so there is no sharing hazard.
	if s.Aggregator != "" && s.Aggregator != "mean" {
		if m.Aggregator, err = fl.ParseAggregator(s.Aggregator); err != nil {
			return nil, err
		}
	}
	if f.Adversary, err = fl.ParseAdversary(s.Adversary); err != nil {
		return nil, err
	}
	if f.Adversary != nil {
		f.Adversary.Frac = s.AdvFrac
	}
	if f.Availability, err = fl.ParseTrace(s.Availability); err != nil {
		return nil, err
	}
	return w, nil
}

// ServerFingerprint binds a networked federation's snapshots to its
// run-defining knobs (the round budget excluded: a resume legitimately
// extends it), so a resumed server can never silently continue a
// differently configured federation.
func (w *World) ServerFingerprint(clients, perRound int, deadline time.Duration) string {
	s := w.Scenario
	return store.Fingerprint("server", s.Method, s.Setting, string(s.Scale),
		fmt.Sprint(s.Seed), fmt.Sprint(clients), fmt.Sprint(perRound),
		fmt.Sprint(s.Quorum), deadline.String(), w.Federation.Straggler.String(),
		fmt.Sprint(w.Method.Aggregator), w.Federation.Availability.String())
}

// simulatorFingerprint binds a simulator run's snapshots to every
// training-affecting knob: the whole preset except Rounds (which a resume
// legitimately extends).
func simulatorFingerprint(env *Environment, method string) string {
	preset := env.Preset
	preset.Rounds = 0
	return store.Fingerprint("simulator", method, env.Setting.Name,
		fmt.Sprint(env.Seed), fmt.Sprintf("%+v", preset), fmt.Sprint(len(env.Participants)))
}

// Checkpoints says where and how one run snapshots its round state.
type Checkpoints struct {
	// Dir is the checkpoint directory (internal/store), created on demand.
	Dir string
	// Every is the stride in rounds (≤0 means every round).
	Every int
	// Seed, Fingerprint and Runtime are the snapshots' store.Meta.
	Seed        int64
	Fingerprint string
	Runtime     string
	// Resume continues from the latest snapshot when the store holds one;
	// its fingerprint must match (store.ErrFingerprintMismatch).
	Resume bool
	// OnSaved, when non-nil, observes each durable save (store.SaveHook).
	OnSaved func(version int, state *fl.SimState)
}

// Attached is what AttachCheckpoints found besides the wiring it set.
type Attached struct {
	// Version is the store version of the snapshot the run resumes from
	// (the Federation's ResumeFrom; 0 when it starts fresh).
	Version int
	// Stateful reports that the run's snapshots miss cross-round state
	// the method carries: state outside the global vector and the client
	// table (fl.Resumable: SCAFFOLD's server control variate), or, on the
	// "server" runtime, the client table itself, whose rows live in the
	// join processes. Such snapshots stay inspectable but can never be
	// resumed.
	Stateful bool
}

// AttachCheckpoints opens c.Dir and sets the checkpoint hooks of f, the
// Federation a run of m is about to be configured with: OnCheckpoint,
// CheckpointEvery and — with c.Resume and a snapshot in the store —
// ResumeFrom. Resuming a run whose snapshots miss cross-round state
// (Attached.Stateful) would silently diverge, so it is refused with
// fl.ErrStatefulResume before the directory is touched; f is set only on
// success.
func AttachCheckpoints(m *fl.Method, c Checkpoints, f *fl.Federation) (*Attached, error) {
	rowsElsewhere := c.Runtime == "server" && m.Clients != nil
	a := &Attached{Stateful: !fl.Resumable(m) || rowsElsewhere}
	if a.Stateful && c.Resume {
		if rowsElsewhere {
			return nil, fmt.Errorf("method %s keeps client rows in the join processes: %w", m.Name, fl.ErrStatefulResume)
		}
		return nil, fmt.Errorf("method %s: %w", m.Name, fl.ErrStatefulResume)
	}
	ckpt, err := store.Open(c.Dir)
	if err != nil {
		return nil, err
	}
	var from *fl.SimState
	if c.Resume {
		snap, v, err := ckpt.Resume(c.Fingerprint)
		if err != nil {
			return nil, err
		}
		if snap != nil {
			from, a.Version = &snap.State, v
		}
	}
	f.OnCheckpoint = ckpt.SaveHook(store.Meta{Seed: c.Seed, Fingerprint: c.Fingerprint, Runtime: c.Runtime}, c.OnSaved)
	f.CheckpointEvery, f.ResumeFrom = c.Every, from
	return a, nil
}
