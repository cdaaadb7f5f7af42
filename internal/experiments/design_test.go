package experiments

import (
	"context"
	"testing"
)

func TestDesignVariantNames(t *testing.T) {
	env, err := BuildEnvironment(settingCIFAR10Q(), ScaleSmoke, 31)
	if err != nil {
		t.Fatalf("BuildEnvironment: %v", err)
	}
	for _, variant := range []string{"full", "fixed-k", "no-gate", "no-filter", "no-warmup"} {
		name := "calibre-simclr{" + variant + "}"
		m, err := BuildMethod(env, name)
		if err != nil {
			t.Fatalf("BuildMethod(%s): %v", name, err)
		}
		if m.Name != name {
			t.Fatalf("variant name = %s, want %s", m.Name, name)
		}
	}
	if _, err := BuildMethod(env, "calibre-simclr{bogus}"); err == nil {
		t.Fatal("unknown variant should error")
	}
}

func TestRunDesignAblationSmoke(t *testing.T) {
	report, err := Run(context.Background(), "design", ScaleSmoke, 32)
	if err != nil {
		t.Fatalf("Run(design): %v", err)
	}
	if len(report.Settings) != 1 || len(report.Settings[0].Results) != 5 {
		t.Fatalf("design report shape: %d settings, %d results",
			len(report.Settings), len(report.Settings[0].Results))
	}
	for _, r := range report.Settings[0].Results {
		if r.Summary.Mean <= 0 || r.Summary.Mean > 1 {
			t.Fatalf("%s mean = %v", r.Method, r.Summary.Mean)
		}
	}
}

func TestVICRegRunsThroughPipeline(t *testing.T) {
	env, err := BuildEnvironment(settingCIFAR10Q(), ScaleSmoke, 33)
	if err != nil {
		t.Fatalf("BuildEnvironment: %v", err)
	}
	env.Novel = nil
	out, err := RunMethod(context.Background(), env, "calibre-vicreg")
	if err != nil {
		t.Fatalf("RunMethod(calibre-vicreg): %v", err)
	}
	if out.Participants.Summary.N != len(env.Participants) {
		t.Fatalf("N = %d", out.Participants.Summary.N)
	}
	// The SSL-encoder reconstruction path must handle the extension too.
	if _, err := EncoderFor(env, "calibre-vicreg", out.Global); err != nil {
		t.Fatalf("EncoderFor(calibre-vicreg): %v", err)
	}
}
