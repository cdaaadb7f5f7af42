// Package experiments reproduces every table and figure of the paper's
// evaluation section. Each experiment is identified by the paper's label
// (fig1..fig8, table1) and can run at three scales (smoke/ci/paper); the
// paper scale matches §V-A's setup (100 clients + 50 novel, 200 rounds, 10
// clients per round), while smaller scales keep CI fast. README.md
// "Experiments" has the experiment index and the scale table.
package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"calibre/internal/data"
	"calibre/internal/partition"
	"calibre/internal/ssl"
)

// Scale selects an experiment size preset.
type Scale string

// Supported scales.
const (
	ScaleSmoke Scale = "smoke"
	ScaleCI    Scale = "ci"
	ScalePaper Scale = "paper"
)

// Preset carries the concrete sizes for a scale.
type Preset struct {
	Clients         int
	NovelClients    int
	Rounds          int
	ClientsPerRound int
	// SampleFrac scales the paper's per-client sample counts.
	SampleFrac float64
	// MinSamples floors the scaled per-client count.
	MinSamples int
	// UnlabeledFrac scales the paper's unlabeled pool.
	UnlabeledFrac float64
	// InputDim overrides the dataset observation dimension (0 = spec's).
	InputDim int
	// LocalEpochs for the training stage (paper: 3).
	LocalEpochs int
}

// PresetFor returns the preset for a scale.
func PresetFor(s Scale) (Preset, error) {
	switch s {
	case ScaleSmoke:
		return Preset{
			Clients: 8, NovelClients: 4, Rounds: 4, ClientsPerRound: 3,
			SampleFrac: 0.1, MinSamples: 40, UnlabeledFrac: 0.002,
			InputDim: 16, LocalEpochs: 1,
		}, nil
	case ScaleCI:
		return Preset{
			Clients: 20, NovelClients: 10, Rounds: 40, ClientsPerRound: 5,
			SampleFrac: 0.25, MinSamples: 60, UnlabeledFrac: 0.05,
			InputDim: 32, LocalEpochs: 3,
		}, nil
	case ScalePaper:
		return Preset{
			Clients: 100, NovelClients: 50, Rounds: 200, ClientsPerRound: 10,
			SampleFrac: 1, MinSamples: 40, UnlabeledFrac: 1,
			InputDim: 64, LocalEpochs: 3,
		}, nil
	default:
		return Preset{}, fmt.Errorf("experiments: unknown scale %q (smoke|ci|paper)", s)
	}
}

// PartitionKind selects the non-i.i.d. scheme.
type PartitionKind int

// Partition kinds.
const (
	PartQuantity PartitionKind = iota + 1
	PartDirichlet
)

// Setting is one dataset + partition combination from the paper.
type Setting struct {
	Name string
	Spec data.Spec
	Kind PartitionKind
	// ClassesPerClient applies to quantity-based settings (S).
	ClassesPerClient int
	// DirichletAlpha applies to distribution-based settings.
	DirichletAlpha float64
	// PaperSamples is the per-client sample count the paper uses.
	PaperSamples int
	// PaperUnlabeled is the total unlabeled-pool size (STL-10: 100k).
	PaperUnlabeled int
	// TrainLabelNoise is the fraction of training labels flipped to a
	// random other class (annotation noise; test labels stay clean). See
	// ARCHITECTURE.md "Synthetic substitutions": this is part of the
	// synthetic stand-in for real image datasets' intrinsic label hardness.
	TrainLabelNoise float64
}

// defaultLabelNoise matches the ~aleatoric hardness of the CIFAR-scale
// datasets; applied identically across all settings and methods.
const defaultLabelNoise = 0.15

// The paper's six evaluation settings.
func settingCIFAR10Q() Setting {
	return Setting{Name: "cifar10-q(2,500)", Spec: data.CIFAR10Spec(), Kind: PartQuantity, ClassesPerClient: 2, PaperSamples: 500}
}
func settingCIFAR100Q() Setting {
	return Setting{Name: "cifar100-q(5,500)", Spec: data.CIFAR100Spec(), Kind: PartQuantity, ClassesPerClient: 5, PaperSamples: 500}
}
func settingSTL10Q() Setting {
	return Setting{Name: "stl10-q(2,46)", Spec: data.STL10Spec(), Kind: PartQuantity, ClassesPerClient: 2, PaperSamples: 46, PaperUnlabeled: 100_000}
}
func settingSTL10D() Setting {
	return Setting{Name: "stl10-d(0.3,80)", Spec: data.STL10Spec(), Kind: PartDirichlet, DirichletAlpha: 0.3, PaperSamples: 80, PaperUnlabeled: 100_000}
}
func settingCIFAR10D() Setting {
	return Setting{Name: "cifar10-d(0.3,600)", Spec: data.CIFAR10Spec(), Kind: PartDirichlet, DirichletAlpha: 0.3, PaperSamples: 600}
}
func settingCIFAR100D() Setting {
	return Setting{Name: "cifar100-d(0.3,500)", Spec: data.CIFAR100Spec(), Kind: PartDirichlet, DirichletAlpha: 0.3, PaperSamples: 500}
}

// Settings returns the named settings; README.md "Experiments" says which
// figures use which.
func Settings() map[string]Setting {
	out := map[string]Setting{}
	for _, s := range []Setting{
		settingCIFAR10Q(), settingCIFAR100Q(), settingSTL10Q(),
		settingSTL10D(), settingCIFAR10D(), settingCIFAR100D(),
	} {
		out[s.Name] = s
	}
	return out
}

// Environment is a fully materialized experiment world: generated data,
// partitioned clients, and the architecture every method shares.
type Environment struct {
	Setting Setting
	Preset  Preset
	Seed    int64

	Arch       ssl.Arch
	NumClasses int

	// Augment is the SSL augmentation pipeline, style-aware: it perturbs
	// the generator's nuisance-style subspace while preserving class cores
	// (the synthetic analogue of image augmentation).
	Augment data.Augmenter

	// Participants take part in federated training; Novel clients only
	// appear at personalization time (paper §V-D).
	Participants []*partition.Client
	Novel        []*partition.Client
}

// SamplesPerClient returns the scaled per-client sample count.
func (s Setting) SamplesPerClient(p Preset) int {
	n := int(math.Round(float64(s.PaperSamples) * p.SampleFrac))
	if n < p.MinSamples {
		n = p.MinSamples
	}
	// Quantity partitions need at least a handful of samples per class so
	// the local train/test split covers every local class.
	if s.Kind == PartQuantity && s.ClassesPerClient > 0 {
		if min := s.ClassesPerClient * 10; n < min {
			n = min
		}
	}
	return n
}

// BuildEnvironment generates the dataset, partitions clients (participants
// + novel) and fixes the shared architecture.
func BuildEnvironment(setting Setting, scale Scale, seed int64) (*Environment, error) {
	preset, err := PresetFor(scale)
	if err != nil {
		return nil, err
	}
	spec := setting.Spec
	if preset.InputDim > 0 {
		spec.Dim = preset.InputDim
	}
	gen, err := data.NewGenerator(spec, seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", setting.Name, err)
	}
	rng := rand.New(rand.NewSource(seed + 1))

	totalClients := preset.Clients + preset.NovelClients
	samples := setting.SamplesPerClient(preset)
	perClass := (totalClients*samples + spec.NumClasses - 1) / spec.NumClasses
	// Generate at least a modest pool per class; partitioners cycle when
	// clients outnumber unique samples (documented reuse).
	if perClass < 2*samples {
		perClass = 2 * samples
	}
	ds := gen.GenerateLabeled(rng, perClass)

	var assignments [][]int
	switch setting.Kind {
	case PartQuantity:
		assignments, err = partition.QuantityNonIID(rng, ds, totalClients, setting.ClassesPerClient, samples)
	case PartDirichlet:
		assignments, err = partition.DirichletNonIID(rng, ds, totalClients, setting.DirichletAlpha, samples)
	default:
		err = fmt.Errorf("experiments: unknown partition kind %d", setting.Kind)
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: partition %s: %w", setting.Name, err)
	}
	var unlabeled *data.Dataset
	if setting.PaperUnlabeled > 0 {
		n := int(float64(setting.PaperUnlabeled) * preset.UnlabeledFrac)
		if n < totalClients*10 {
			n = totalClients * 10
		}
		unlabeled = gen.GenerateUnlabeled(rng, n)
	}
	clients := partition.BuildClients(rng, ds, assignments, unlabeled)
	noise := setting.TrainLabelNoise
	if noise == 0 {
		noise = defaultLabelNoise
	}
	if noise > 0 {
		partition.CorruptTrainLabels(rng, clients, noise, spec.NumClasses)
	}
	env := &Environment{
		Setting:      setting,
		Preset:       preset,
		Seed:         seed,
		Arch:         ssl.DefaultArch(spec.Dim),
		NumClasses:   spec.NumClasses,
		Augment:      gen.StyleAugmenter(),
		Participants: clients[:preset.Clients],
		Novel:        clients[preset.Clients:],
	}
	return env, nil
}
