package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"calibre/internal/baselines"
	"calibre/internal/eval"
	"calibre/internal/fl"
	"calibre/internal/model"
	"calibre/internal/nn"
	"calibre/internal/param"
	"calibre/internal/ssl"
	"calibre/internal/tensor"
)

// MethodOutcome is one method's complete result on one setting.
type MethodOutcome struct {
	Method       string
	Setting      string
	Participants eval.MethodResult
	Novel        eval.MethodResult
	History      []fl.RoundStats
	Global       []float64
}

// baselineConfig derives the shared baseline configuration for an
// environment.
func baselineConfig(env *Environment) baselines.Config {
	cfg := baselines.DefaultConfig(env.Arch, env.NumClasses)
	cfg.Train.Epochs = env.Preset.LocalEpochs
	cfg.Augment = env.Augment
	cfg.WarmupRounds = warmupFor(env.Preset)
	return cfg
}

// warmupFor scales Calibre's regularizer warm-up to the round budget: a
// quarter of the rounds, capped at the default 10 (so the ci and paper
// scales match the settings recorded in README "Experiments" and short smoke runs
// still reach the calibration phase).
func warmupFor(p Preset) int {
	w := p.Rounds / 4
	if w < 1 {
		w = 1
	}
	if w > 10 {
		w = 10
	}
	return w
}

// BuildMethod constructs any registered method for the environment.
func BuildMethod(env *Environment, name string) (*fl.Method, error) {
	return baselines.Build(name, baselineConfig(env), len(env.Participants))
}

// RunMethod trains a registered method on the environment and personalizes
// both participants and novel clients.
func RunMethod(ctx context.Context, env *Environment, name string) (*MethodOutcome, error) {
	m, err := BuildMethod(env, name)
	if err != nil {
		return nil, err
	}
	return RunBuiltMethodWith(ctx, env, m, nil)
}

// RunMethodResumable is RunMethod with durable round snapshots: round
// state is checkpointed into dir every `every` rounds (≤0 means every
// round) and, when dir already holds a matching snapshot, training
// resumes from it instead of starting over — the crash-recovery path for
// long simulator runs. The snapshot fingerprint binds the directory to
// this (method, setting, seed, preset, population) combination; resuming
// under a different configuration fails with store.ErrFingerprintMismatch.
// The snapshots carry the method's client table. SCAFFOLD, whose server
// control variate they do not, is refused upfront (fl.ErrStatefulResume);
// run it with RunMethod.
func RunMethodResumable(ctx context.Context, env *Environment, name, dir string, every int) (*MethodOutcome, error) {
	m, err := BuildMethod(env, name)
	if err != nil {
		return nil, err
	}
	var f fl.Federation
	if _, err := AttachCheckpoints(m, Checkpoints{
		Dir: dir, Every: every, Resume: true,
		Seed: env.Seed, Fingerprint: simulatorFingerprint(env, name), Runtime: "simulator",
	}, &f); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return RunBuiltMethodWith(ctx, env, m, func(cfg *fl.SimConfig) { cfg.Federation = f })
}

// RunBuiltMethodWith drives the simulator and both personalization stages
// for an already built method — the one runner every other Run* and every
// sweep cell goes through. mutate (may be nil) runs after the
// preset-derived fields are filled and can adjust any knob: parallelism
// budgets, quorum/dropout/straggler policies, checkpoint
// wiring.
func RunBuiltMethodWith(ctx context.Context, env *Environment, m *fl.Method, mutate func(*fl.SimConfig)) (*MethodOutcome, error) {
	cfg := fl.SimConfig{
		Rounds:          env.Preset.Rounds,
		ClientsPerRound: env.Preset.ClientsPerRound,
		Seed:            env.Seed,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	sim, err := fl.NewSimulator(cfg, m, env.Participants)
	if err != nil {
		return nil, err
	}
	global, history, err := sim.Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s on %s: %w", m.Name, env.Setting.Name, err)
	}
	// Personalization honors the same explicit parallelism budget as
	// training (0 keeps the GOMAXPROCS default), so a sweep running many
	// cells concurrently bounds its total fan-out at both stages.
	part, err := fl.PersonalizeAll(ctx, env.Seed, m, env.Participants, global, cfg.Parallelism)
	if err != nil {
		return nil, fmt.Errorf("experiments: personalize participants (%s): %w", m.Name, err)
	}
	outcome := &MethodOutcome{
		Method:  m.Name,
		Setting: env.Setting.Name,
		History: history,
		Global:  global,
		Participants: eval.MethodResult{
			Method: m.Name, Summary: eval.Summarize(part), Accs: part,
		},
	}
	if len(env.Novel) > 0 {
		novel, err := fl.PersonalizeAll(ctx, env.Seed, m, env.Novel, global, cfg.Parallelism)
		if err != nil {
			return nil, fmt.Errorf("experiments: personalize novel clients (%s): %w", m.Name, err)
		}
		outcome.Novel = eval.MethodResult{Method: m.Name, Summary: eval.Summarize(novel), Accs: novel}
	}
	return outcome, nil
}

// EncoderFor reconstructs the trained encoder of a method from its final
// global vector, abstracting over the supervised vs SSL parameter layouts.
// The returned FeatureFn maps raw observation batches to representation
// space; it powers the t-SNE figures and cluster-quality metrics.
func EncoderFor(env *Environment, methodName string, global param.Vector) (model.FeatureFn, error) {
	_, flavour, err := baselines.Resolve(methodName)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(env.Seed + 99))
	if flavour != "" {
		factory, err := ssl.Lookup(flavour)
		if err != nil {
			return nil, err
		}
		return sslEncoder(rng, env, factory, global)
	}
	m := model.NewSupModel(rng, env.Arch, env.NumClasses)
	if err := nn.Unflatten(m, global); err != nil {
		return nil, fmt.Errorf("experiments: load %s encoder: %w", methodName, err)
	}
	return m.EncodeValue, nil
}

func sslEncoder(rng *rand.Rand, env *Environment, factory ssl.Factory, global param.Vector) (model.FeatureFn, error) {
	st, err := ssl.NewTrainable(rng, env.Arch, factory)
	if err != nil {
		return nil, err
	}
	if err := nn.Unflatten(st, global); err != nil {
		return nil, fmt.Errorf("experiments: load SSL encoder: %w", err)
	}
	return st.Backbone.EncodeValue, nil
}

// ClientFeatures encodes (up to maxPerClient of) each selected client's
// training samples with fn and returns the pooled feature matrix, class
// labels and source client IDs.
func ClientFeatures(env *Environment, fn model.FeatureFn, clientIdx []int, maxPerClient int) (*tensor.Tensor, []int, []int, error) {
	var rows [][]float64
	var labels, owners []int
	for _, ci := range clientIdx {
		if ci < 0 || ci >= len(env.Participants) {
			return nil, nil, nil, fmt.Errorf("experiments: client index %d out of range", ci)
		}
		c := env.Participants[ci]
		n := c.Train.Len()
		if maxPerClient > 0 && n > maxPerClient {
			n = maxPerClient
		}
		for i := 0; i < n; i++ {
			rows = append(rows, c.Train.X[i])
			labels = append(labels, c.Train.Y[i])
			owners = append(owners, c.ID)
		}
	}
	if len(rows) == 0 {
		return nil, nil, nil, fmt.Errorf("experiments: no features collected")
	}
	batch := tensor.New(len(rows), len(rows[0]))
	for i, r := range rows {
		batch.SetRow(i, r)
	}
	return fn(batch), labels, owners, nil
}
