package spec

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestSplit(t *testing.T) {
	for _, tc := range []struct {
		in   string
		name string
		args []string
		err  string
	}{
		{in: "mean", name: "mean"},
		{in: " mean ", name: "mean"},
		{in: "median()", name: "median"},
		{in: "median( )", name: "median"},
		{in: "trimmed(0.2)", name: "trimmed", args: []string{"0.2"}},
		{in: "trimmed( 0.2)", name: "trimmed", args: []string{"0.2"}},
		{in: "norm-z( 3.5 , 2 )", name: "norm-z", args: []string{"3.5", "2"}},
		{in: "diurnal (0.1, 0.6, 8) ", name: "diurnal", args: []string{"0.1", "0.6", "8"}},
		{in: "a(x y)", name: "a", args: []string{"x y"}},
		{in: "", err: "no name"},
		{in: "()", err: "no name"},
		{in: " (1)", err: "no name"},
		{in: "a(", err: "missing closing"},
		{in: "a(1", err: "missing closing"},
		{in: "a(1) x", err: "missing closing"},
		{in: "a)", err: "unbalanced"},
		{in: "a)(1)", err: "unbalanced"},
		{in: "a((1))", err: "nested"},
		{in: "a(1)(2)", err: "nested"},
		{in: "a(1))", err: "nested"},
		{in: "a(,)", err: "empty argument"},
		{in: "a(1,)", err: "empty argument"},
		{in: "a( ,1)", err: "empty argument"},
	} {
		name, args, err := Split(tc.in)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("Split(%q) = %q %q, %v; want an error mentioning %q", tc.in, name, args, err, tc.err)
			}
			continue
		}
		if err != nil || name != tc.name || !reflect.DeepEqual(args, tc.args) {
			t.Errorf("Split(%q) = %q %q, %v; want %q %q", tc.in, name, args, err, tc.name, tc.args)
		}
		// The canonical rendering splits back to the same spec.
		if name2, args2, err := Split(join(name, args)); err != nil || name2 != name || !reflect.DeepEqual(args2, args) {
			t.Errorf("Split(join(Split(%q))) = %q %q, %v", tc.in, name2, args2, err)
		}
	}
}

func TestList(t *testing.T) {
	got := List("non-finite, norm-z(3,2),quorum(0.5)")
	want := []string{"non-finite", " norm-z(3,2)", "quorum(0.5)"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("List = %q, want %q", got, want)
	}
	if got := List(""); !reflect.DeepEqual(got, []string{""}) {
		t.Fatalf("List(\"\") = %q", got)
	}
}

// TestBindFormat: omitted arguments take their defaults, out-of-range and
// non-finite values are refused, too many arguments is an error, Format
// renders canonically, and Default repairs only out-of-range values.
func TestBindFormat(t *testing.T) {
	var f float64
	var n int
	slots := func() []Slot {
		return []Slot{
			Float("f", &f, 1.5, func(v float64) bool { return v > 0 }),
			Int("n", &n, 3, func(v int) bool { return v >= 1 }),
		}
	}
	if err := Bind(nil, slots()...); err != nil || f != 1.5 || n != 3 {
		t.Fatalf("Bind(none) = %v, f=%g n=%d; want the defaults", err, f, n)
	}
	if err := Bind([]string{"2.50"}, slots()...); err != nil || f != 2.5 || n != 3 {
		t.Fatalf("Bind(2.50) = %v, f=%g n=%d", err, f, n)
	}
	if got := Format("x", slots()...); got != "x(2.5,3)" {
		t.Fatalf("Format = %q, want x(2.5,3)", got)
	}
	if got := Format("x"); got != "x" {
		t.Fatalf("Format without slots = %q", got)
	}
	for _, args := range [][]string{{"0"}, {"NaN"}, {"+Inf"}, {"1e999"}, {"x"}, {"1", "0"}, {"1", "1.5"}, {"1", "2", "3"}} {
		if err := Bind(args, slots()...); err == nil {
			t.Errorf("Bind(%q) accepted", args)
		}
	}
	f, n = math.NaN(), 7
	Default(slots()...)
	if f != 1.5 || n != 7 {
		t.Fatalf("Default: f=%g n=%d; want 1.5 and the in-range 7 kept", f, n)
	}
}

// FuzzSplit pins the grammar's two contracts: Split never panics, and the
// canonical rendering of anything it accepts is a fixed point — it splits
// back to the same name and arguments. Discovered seeds live in
// testdata/fuzz/FuzzSplit.
func FuzzSplit(f *testing.F) {
	for _, s := range []string{
		"mean", "trimmed( 0.2)", "norm-z()", "diurnal(0.1, 0.6, 8)", "a(,)",
		"a((1))", "a(1", "a)", "(1)", " ", "a(1)(2)", "a(x y)",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		name, args, err := Split(s)
		if err != nil {
			return
		}
		canon := join(name, args)
		name2, args2, err := Split(canon)
		if err != nil {
			t.Fatalf("canonical %q (from %q) does not split: %v", canon, s, err)
		}
		if name2 != name || !reflect.DeepEqual(args2, args) {
			t.Fatalf("fixed point violated for %q: %q %q != %q %q", s, name2, args2, name, args)
		}
	})
}
