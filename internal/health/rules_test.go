package health

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseRulesDefault(t *testing.T) {
	for _, spec := range []string{"default", "all", " default "} {
		c, err := ParseRules(spec)
		if err != nil {
			t.Fatalf("ParseRules(%q): %v", spec, err)
		}
		if !reflect.DeepEqual(c, DefaultConfig()) {
			t.Fatalf("ParseRules(%q) != DefaultConfig", spec)
		}
	}
}

func TestParseRulesRoundTrip(t *testing.T) {
	specs := []string{
		"non-finite",
		"loss-divergence(2.5)",
		"loss-divergence(1.5,7)",
		"plateau(8,0.01)",
		"fairness-drift(0.25,3)",
		"norm-z(3,1)",
		"quorum(0.75,2)",
		"non-finite,loss-divergence(1.5,3),plateau(16,0.001),fairness-drift(0.5,5),norm-z(3.5,2),quorum(0.5,4)",
		" non-finite , norm-z( 4 , 3 ) ",
	}
	for _, spec := range specs {
		c, err := ParseRules(spec)
		if err != nil {
			t.Fatalf("ParseRules(%q): %v", spec, err)
		}
		again, err := ParseRules(c.Rules())
		if err != nil {
			t.Fatalf("re-parse %q (from %q): %v", c.Rules(), spec, err)
		}
		if !reflect.DeepEqual(again, c) {
			t.Fatalf("round trip of %q: %+v != %+v", spec, again, c)
		}
		if again.Rules() != c.Rules() {
			t.Fatalf("canonical form unstable: %q vs %q", again.Rules(), c.Rules())
		}
	}
}

func TestDefaultConfigRules(t *testing.T) {
	want := "non-finite,loss-divergence(1.5,3),plateau(16,0.001),fairness-drift(0.5,5),norm-z(3.5,2),quorum(0.5,4)"
	if got := DefaultConfig().Rules(); got != want {
		t.Fatalf("DefaultConfig().Rules() = %q, want %q", got, want)
	}
	c, err := ParseRules(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, DefaultConfig()) {
		t.Fatal("canonical default spec does not reproduce DefaultConfig")
	}
}

func TestParseRulesErrors(t *testing.T) {
	bad := []string{
		"",
		",",
		"bogus",
		"non-finite(1)",
		"non-finite,non-finite",
		"norm-z()",       // empty parens are fine... see below
		"norm-z(,)",      // empty args
		"norm-z(0)",      // threshold must be > 0
		"norm-z(3,-1)",   // suspect-after ≥ 1
		"norm-z(3,2,1)",  // too many args
		"quorum(1.5)",    // rate ≤ 1
		"plateau(1)",     // window ≥ 2
		"plateau(8,nan)", // non-finite eps
		"loss-divergence(1.5",
		"loss-divergence 1.5)",
		"norm-z((3))",
	}
	for _, spec := range bad {
		if spec == "norm-z()" {
			// Empty parens mean "all defaults" — valid by grammar.
			if _, err := ParseRules(spec); err != nil {
				t.Fatalf("ParseRules(%q) should accept empty parens: %v", spec, err)
			}
			continue
		}
		if _, err := ParseRules(spec); err == nil {
			t.Fatalf("ParseRules(%q) accepted", spec)
		}
	}
}

func TestEnabled(t *testing.T) {
	if got := (Config{}).Rules(); got != "" {
		t.Fatalf("zero config Rules() = %q, want empty", got)
	}
	if got := (Config{Quorum: true}).Rules(); !strings.HasPrefix(got, "quorum(") {
		t.Fatalf("quorum-only config Rules() = %q", got)
	}
}

func TestSeverityStrings(t *testing.T) {
	for sev, want := range map[Severity]string{SevInfo: "info", SevWarn: "warn", SevCrit: "crit"} {
		if sev.String() != want {
			t.Fatalf("%d.String() = %q", sev, sev.String())
		}
	}
	var s Severity
	if err := s.UnmarshalJSON([]byte(`"nope"`)); err == nil || !strings.Contains(err.Error(), "unknown severity") {
		t.Fatalf("bad severity accepted: %v", err)
	}
}
