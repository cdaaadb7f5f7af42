package health

import (
	"reflect"
	"testing"
)

// FuzzParseRules pins the parser's two contracts: it never panics on
// arbitrary input, and every spec it accepts canonicalizes to a fixed
// point — ParseRules(c.Rules()) reproduces c exactly and re-renders the
// identical string. The committed corpus under testdata/fuzz seeds the
// grammar's corners (empty args, whitespace, duplicate rules, nested
// parens, non-finite numbers).
func FuzzParseRules(f *testing.F) {
	seeds := []string{
		"default",
		"all",
		"non-finite",
		"non-finite,loss-divergence(1.5,3),plateau(16,0.001),fairness-drift(0.5,5),norm-z(3.5,2),quorum(0.5,4)",
		"norm-z()",
		"norm-z( 3.5 , 2 )",
		"quorum(0.5)",
		"plateau(2,1e-9)",
		"loss-divergence(1e308)",
		"",
		",",
		"norm-z((3))",
		"norm-z(3,2,1)",
		"quorum(nan)",
		"quorum(+Inf)",
		"non-finite)",
		"loss-divergence(1.5",
		"norm-z(3),norm-z(3)",
		"NON-FINITE",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := ParseRules(spec)
		if err != nil {
			return
		}
		canon := c.Rules()
		again, err := ParseRules(canon)
		if err != nil {
			// The empty canonical form is the one legitimate gap: a spec
			// that parses but enables nothing (impossible today — every
			// rule name enables its rule — so treat it as a bug too).
			t.Fatalf("canonical form %q (from %q) does not re-parse: %v", canon, spec, err)
		}
		if !reflect.DeepEqual(again, c) {
			t.Fatalf("fixed point violated for %q: %+v != %+v", spec, again, c)
		}
		if again.Rules() != canon {
			t.Fatalf("canonical form unstable for %q: %q vs %q", spec, again.Rules(), canon)
		}
		if canon == "" {
			t.Fatalf("accepted spec %q enables no rules", spec)
		}
	})
}
