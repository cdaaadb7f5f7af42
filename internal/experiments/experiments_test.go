package experiments

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"calibre/internal/tensor"
)

func TestPresetFor(t *testing.T) {
	for _, s := range []Scale{ScaleSmoke, ScaleCI, ScalePaper} {
		p, err := PresetFor(s)
		if err != nil {
			t.Fatalf("PresetFor(%s): %v", s, err)
		}
		if p.Clients < 1 || p.Rounds < 1 || p.ClientsPerRound < 1 {
			t.Fatalf("bad preset %+v", p)
		}
	}
	if _, err := PresetFor("nope"); err == nil {
		t.Fatal("unknown scale should error")
	}
	paper, err := PresetFor(ScalePaper)
	if err != nil {
		t.Fatalf("PresetFor(paper): %v", err)
	}
	// The paper's §V-A setup.
	if paper.Clients != 100 || paper.NovelClients != 50 || paper.Rounds != 200 || paper.ClientsPerRound != 10 || paper.LocalEpochs != 3 {
		t.Fatalf("paper preset diverges from §V-A: %+v", paper)
	}
}

func TestSettingsCoverPaper(t *testing.T) {
	s := Settings()
	for _, name := range []string{
		"cifar10-q(2,500)", "cifar100-q(5,500)", "stl10-q(2,46)",
		"stl10-d(0.3,80)", "cifar10-d(0.3,600)", "cifar100-d(0.3,500)",
	} {
		if _, ok := s[name]; !ok {
			t.Fatalf("missing setting %s", name)
		}
	}
	if s["cifar100-q(5,500)"].Spec.NumClasses != 100 {
		t.Fatal("cifar100 setting must have 100 classes")
	}
	if s["stl10-q(2,46)"].PaperUnlabeled != 100_000 {
		t.Fatal("stl10 must carry the 100k unlabeled pool")
	}
}

func TestBuildEnvironment(t *testing.T) {
	env, err := BuildEnvironment(settingCIFAR10Q(), ScaleSmoke, 1)
	if err != nil {
		t.Fatalf("BuildEnvironment: %v", err)
	}
	if len(env.Participants) != env.Preset.Clients || len(env.Novel) != env.Preset.NovelClients {
		t.Fatalf("client counts = %d/%d", len(env.Participants), len(env.Novel))
	}
	if env.Arch.InputDim != env.Preset.InputDim {
		t.Fatalf("arch input dim = %d", env.Arch.InputDim)
	}
	for _, c := range slices.Concat(env.Participants, env.Novel) {
		if c.Train.Len() == 0 || c.Test.Len() == 0 {
			t.Fatalf("client %d has empty split", c.ID)
		}
	}
	// STL-10 gets unlabeled pools.
	stl, err := BuildEnvironment(settingSTL10Q(), ScaleSmoke, 1)
	if err != nil {
		t.Fatalf("BuildEnvironment stl: %v", err)
	}
	if stl.Participants[0].Unlabeled == nil || stl.Participants[0].Unlabeled.Len() == 0 {
		t.Fatal("STL-10 clients must hold unlabeled data")
	}
	cif, err := BuildEnvironment(settingCIFAR10Q(), ScaleSmoke, 1)
	if err != nil {
		t.Fatalf("BuildEnvironment cifar: %v", err)
	}
	if cif.Participants[0].Unlabeled != nil {
		t.Fatal("CIFAR clients must not hold unlabeled data")
	}
}

func TestSamplesPerClientScaling(t *testing.T) {
	preset, err := PresetFor(ScalePaper)
	if err != nil {
		t.Fatalf("PresetFor: %v", err)
	}
	if got := settingCIFAR10Q().SamplesPerClient(preset); got != 500 {
		t.Fatalf("paper-scale samples = %d, want 500", got)
	}
	smoke, err := PresetFor(ScaleSmoke)
	if err != nil {
		t.Fatalf("PresetFor: %v", err)
	}
	got := settingCIFAR10Q().SamplesPerClient(smoke)
	if got < smoke.MinSamples {
		t.Fatalf("smoke samples = %d below floor", got)
	}
}

func TestRunMethodSmoke(t *testing.T) {
	env, err := BuildEnvironment(settingCIFAR10Q(), ScaleSmoke, 2)
	if err != nil {
		t.Fatalf("BuildEnvironment: %v", err)
	}
	env.Novel = env.Novel[:1]
	out, err := RunMethod(context.Background(), env, "fedavg-ft")
	if err != nil {
		t.Fatalf("RunMethod: %v", err)
	}
	if out.Participants.Summary.N != len(env.Participants) {
		t.Fatalf("participant N = %d", out.Participants.Summary.N)
	}
	if out.Novel.Summary.N != 1 {
		t.Fatalf("novel N = %d", out.Novel.Summary.N)
	}
	if len(out.History) != env.Preset.Rounds {
		t.Fatalf("history rounds = %d", len(out.History))
	}
}

func TestEncoderForEveryLayout(t *testing.T) {
	env, err := BuildEnvironment(settingCIFAR10Q(), ScaleSmoke, 3)
	if err != nil {
		t.Fatalf("BuildEnvironment: %v", err)
	}
	env.Novel = nil
	for _, name := range []string{"fedavg", "pfl-simclr", "calibre-swav", "fedema", "calibre-simclr[ln]", "calibre-byol{no-gate}"} {
		name := name
		t.Run(name, func(t *testing.T) {
			m, err := BuildMethod(env, name)
			if err != nil {
				t.Fatalf("BuildMethod: %v", err)
			}
			rngInit, err := m.InitGlobal(rand.New(rand.NewSource(4)))
			if err != nil {
				t.Fatalf("InitGlobal: %v", err)
			}
			fn, err := EncoderFor(env, name, rngInit)
			if err != nil {
				t.Fatalf("EncoderFor: %v", err)
			}
			feats, labels, owners, err := ClientFeatures(env, fn, []int{0, 1}, 5)
			if err != nil {
				t.Fatalf("ClientFeatures: %v", err)
			}
			if feats.Rows() != len(labels) || len(labels) != len(owners) {
				t.Fatal("feature/label/owner misalignment")
			}
			if feats.Cols() != env.Arch.FeatDim {
				t.Fatalf("feature dim = %d, want %d", feats.Cols(), env.Arch.FeatDim)
			}
		})
	}
	for _, name := range []string{"pfl-doesnotexist", "pfl-simclr[ln]"} {
		if _, err := EncoderFor(env, name, nil); err == nil {
			t.Fatalf("EncoderFor(%s) accepted an unknown method", name)
		}
	}
}

func TestClientFeaturesValidation(t *testing.T) {
	env, err := BuildEnvironment(settingCIFAR10Q(), ScaleSmoke, 5)
	if err != nil {
		t.Fatalf("BuildEnvironment: %v", err)
	}
	identity := func(x *tensor.Tensor) *tensor.Tensor { return x }
	if _, _, _, err := ClientFeatures(env, identity, []int{999}, 5); err == nil {
		t.Fatal("out-of-range client index should error")
	}
	if _, _, _, err := ClientFeatures(env, identity, nil, 5); err == nil {
		t.Fatal("no clients should error")
	}
}

func TestAblationVariantNames(t *testing.T) {
	env, err := BuildEnvironment(settingCIFAR10Q(), ScaleSmoke, 6)
	if err != nil {
		t.Fatalf("BuildEnvironment: %v", err)
	}
	for _, name := range []string{"calibre-simclr[ln]", "calibre-swav[ln+lp]", "calibre-smog[base]"} {
		m, err := BuildMethod(env, name)
		if err != nil {
			t.Fatalf("BuildMethod(%s): %v", name, err)
		}
		if m.Name != name {
			t.Fatalf("name = %s, want %s", m.Name, name)
		}
	}
	if _, err := BuildMethod(env, "calibre-simclr[ln+ln]"); err == nil {
		t.Fatal("unknown regularizer combination accepted")
	}
}

// IDs is the experiment index fig -list prints and Run accepts.
func TestExperimentIDs(t *testing.T) {
	ids := IDs()
	if len(ids) != 10 { // fig1..fig8, table1, design
		t.Fatalf("IDs = %v", ids)
	}
}

func TestSettingNamesSorted(t *testing.T) {
	names := SettingNames()
	if len(names) != 6 {
		t.Fatalf("SettingNames = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run(context.Background(), "fig99", ScaleSmoke, 1); err == nil {
		t.Fatal("unknown id should error")
	}
}

func TestRunFig1SmokeEndToEnd(t *testing.T) {
	report, err := Run(context.Background(), "fig1", ScaleSmoke, 7)
	if err != nil {
		t.Fatalf("Run(fig1): %v", err)
	}
	if len(report.Embeddings) != 2 {
		t.Fatalf("embeddings = %d", len(report.Embeddings))
	}
	for _, e := range report.Embeddings {
		if e.Points == nil || e.Points.Rows() == 0 {
			t.Fatal("missing t-SNE points")
		}
		if math.IsNaN(e.Silhouette) || math.IsNaN(e.Purity) {
			t.Fatal("non-finite representation metrics")
		}
	}
	text := report.String()
	if !strings.Contains(text, "pfl-simclr") || !strings.Contains(text, "silhouette") {
		t.Fatalf("report rendering incomplete:\n%s", text)
	}
}

func TestRunFig2HasCloseups(t *testing.T) {
	report, err := Run(context.Background(), "fig2", ScaleSmoke, 8)
	if err != nil {
		t.Fatalf("Run(fig2): %v", err)
	}
	for _, e := range report.Embeddings {
		if len(e.PerClient) == 0 {
			t.Fatalf("%s missing per-client close-ups", e.Method)
		}
		for _, c := range e.PerClient {
			if c.Accuracy < 0 || c.Accuracy > 1 {
				t.Fatalf("close-up accuracy = %v", c.Accuracy)
			}
		}
	}
}

func TestRunTable1Smoke(t *testing.T) {
	report, err := Run(context.Background(), "table1", ScaleSmoke, 9)
	if err != nil {
		t.Fatalf("Run(table1): %v", err)
	}
	if len(report.Ablation) != 4 {
		t.Fatalf("ablation rows = %d, want 4", len(report.Ablation))
	}
	for _, row := range report.Ablation {
		for _, v := range report.AblationVariants {
			s, ok := row.Results[v]
			if !ok {
				t.Fatalf("missing variant %s", v)
			}
			if s.Mean < 0 || s.Mean > 1 {
				t.Fatalf("ablation mean = %v", s.Mean)
			}
		}
	}
	if !strings.Contains(report.String(), "calibre-simclr") {
		t.Fatal("table rendering incomplete")
	}
}

func TestReportHelpers(t *testing.T) {
	report, err := Run(context.Background(), "fig1", ScaleSmoke, 10)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var csv strings.Builder
	if err := WriteEmbeddingsCSV(&csv, report.Embeddings); err != nil {
		t.Fatalf("WriteEmbeddingsCSV: %v", err)
	}
	if !strings.Contains(csv.String(), "method,x,y,label,client") {
		t.Fatal("embeddings CSV header missing")
	}
	var rcsv strings.Builder
	if err := WriteResultsCSV(&rcsv, report); err != nil {
		t.Fatalf("WriteResultsCSV: %v", err)
	}
	if !strings.Contains(rcsv.String(), "participants") {
		t.Fatal("results CSV missing cohort rows")
	}
}
