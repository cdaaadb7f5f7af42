// Package spec is the one grammar of the repo's textual knobs: a name, or
// a name with positional arguments, name(a,b,…). Aggregator, adversary,
// availability-trace and health-rule specs are all read by Split and
// written by Format, so every family accepts the same spelling:
//
//   - spaces around the name and around each argument are ignored;
//   - name() is name, and an omitted trailing argument takes its default;
//   - parentheses do not nest, and an argument is never empty.
//
// An argument is a Slot: where its value lives, how it parses (finite
// and in range), how it renders canonically ('g', -1 for floats, decimal
// for integers) and what its default is, so a family's parser and its
// String method read the same list and Parse∘String is a fixed point.
package spec

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Split splits "name" or "name(a,b,…)" into the name and its arguments,
// each trimmed of spaces; "name()" has no arguments.
func Split(s string) (name string, args []string, err error) {
	s = strings.TrimSpace(s)
	name, body, paren := strings.Cut(s, "(")
	name = strings.TrimSpace(name)
	switch {
	case strings.Contains(name, ")"):
		return "", nil, fmt.Errorf("unbalanced parenthesis in %q", s)
	case paren && !strings.HasSuffix(body, ")"):
		return "", nil, fmt.Errorf("missing closing parenthesis in %q", s)
	case name == "":
		return "", nil, fmt.Errorf("no name in %q", s)
	case !paren:
		return name, nil, nil
	}
	body = body[:len(body)-1]
	if strings.ContainsAny(body, "()") {
		return "", nil, fmt.Errorf("nested parentheses in %q", s)
	}
	if strings.TrimSpace(body) == "" {
		return name, nil, nil
	}
	args = strings.Split(body, ",")
	for i := range args {
		if args[i] = strings.TrimSpace(args[i]); args[i] == "" {
			return "", nil, fmt.Errorf("empty argument in %q", s)
		}
	}
	return name, args, nil
}

// List splits a comma-separated list of specs on the commas outside
// parentheses.
func List(s string) []string {
	var out []string
	depth, start := 0, 0
	for i, r := range s {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// Slot is one positional argument, bound to the variable that holds it.
type Slot struct {
	parse  func(string) error
	format func() string
	ok     func() bool // the held value is in range
	reset  func()      // hold the default
}

func newSlot[T any](label string, p *T, def T, ok func(T) bool, parse func(string) (T, error), format func(T) string) Slot {
	return Slot{
		parse: func(s string) error {
			v, err := parse(s)
			if err != nil {
				return fmt.Errorf("%s: bad value %q", label, s)
			}
			if !ok(v) {
				return fmt.Errorf("%s: %s out of range", label, s)
			}
			*p = v
			return nil
		},
		format: func() string { return format(*p) },
		ok:     func() bool { return ok(*p) },
		reset:  func() { *p = def },
	}
}

// Float is a float64 argument: finite and, when ok is non-nil, satisfying
// ok.
func Float(label string, p *float64, def float64, ok func(float64) bool) Slot {
	in := func(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) && (ok == nil || ok(f)) }
	return newSlot(label, p, def, in,
		func(s string) (float64, error) { return strconv.ParseFloat(s, 64) },
		func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) })
}

// Int is an int argument satisfying ok when ok is non-nil.
func Int(label string, p *int, def int, ok func(int) bool) Slot {
	in := func(n int) bool { return ok == nil || ok(n) }
	return newSlot(label, p, def, in, strconv.Atoi, strconv.Itoa)
}

// Bind parses args into slots in order; a slot without an argument takes
// its default. More arguments than slots is an error.
func Bind(args []string, slots ...Slot) error {
	if len(args) > len(slots) {
		return fmt.Errorf("takes at most %d arguments, got %d", len(slots), len(args))
	}
	for i, s := range slots {
		if i >= len(args) {
			s.reset()
		} else if err := s.parse(args[i]); err != nil {
			return err
		}
	}
	return nil
}

// Default gives every slot whose value is out of range its default.
func Default(slots ...Slot) {
	for _, s := range slots {
		if !s.ok() {
			s.reset()
		}
	}
}

// Format renders the canonical spec name(a,b,…), or name when there are
// no slots.
func Format(name string, slots ...Slot) string {
	args := make([]string, len(slots))
	for i, s := range slots {
		args[i] = s.format()
	}
	return join(name, args)
}

func join(name string, args []string) string {
	if len(args) == 0 {
		return name
	}
	return name + "(" + strings.Join(args, ",") + ")"
}
