package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReadsEveryCommittedEnvelope pins that the generic reader understands
// both harness schemas as actually committed at the repo root.
func TestReadsEveryCommittedEnvelope(t *testing.T) {
	cases := map[string]string{
		"BENCH_kernels.json": "records",
		"BENCH_sweep.json":   "records",
	}
	for name, section := range cases {
		f, err := readBenchFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if f.Schema == "" || f.GOOS == "" || f.GOMaxProcs < 1 {
			t.Errorf("%s: incomplete header: %+v", name, f)
		}
		if len(f.Sections[section]) == 0 {
			t.Errorf("%s: section %q empty; have %v", name, section, f.SectionNames())
		}
		if f.Env() == "" {
			t.Errorf("%s: empty env line", name)
		}
	}
}

func TestRejectsNonEnvelope(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.json")
	if err := os.WriteFile(path, []byte(`{"foo": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readBenchFile(path); err == nil {
		t.Fatal("accepted a JSON file without the bench header")
	}
}

func TestEnvMismatch(t *testing.T) {
	a := &benchFile{Schema: "s/v1", GOOS: "linux", GOARCH: "amd64", GOMaxProcs: 1}
	b := &benchFile{Schema: "s/v1", GOOS: "linux", GOARCH: "amd64", GOMaxProcs: 1}
	if warns := benchEnvMismatch(a, b); len(warns) != 0 {
		t.Fatalf("identical envs warned: %v", warns)
	}
	b.GOMaxProcs = 8
	warns := benchEnvMismatch(a, b)
	if len(warns) != 1 {
		t.Fatalf("want exactly the gomaxprocs warning, got %v", warns)
	}
	b.Schema = "other/v1"
	if warns := benchEnvMismatch(a, b); len(warns) != 2 {
		t.Fatalf("want schema + gomaxprocs warnings, got %v", warns)
	}
	a.KernelImpl, b.KernelImpl = "avx2", ""
	if warns := benchEnvMismatch(a, b); len(warns) != 2 {
		t.Fatalf("an envelope that records no kernel_impl must not warn about it, got %v", warns)
	}
	b.KernelImpl = "generic"
	if warns := benchEnvMismatch(a, b); len(warns) != 3 {
		t.Fatalf("want schema + gomaxprocs + kernel_impl warnings, got %v", warns)
	}
	a.KernelImpl, b.KernelImpl = "avx512", "avx2"
	if warns := benchEnvMismatch(a, b); len(warns) != 3 || !strings.Contains(warns[2], "avx512 vs avx2") {
		t.Fatalf("want schema + gomaxprocs + an avx512 vs avx2 kernel_impl warning, got %v", warns)
	}
}
