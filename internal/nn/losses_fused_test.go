package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"calibre/internal/tensor"
)

// The chains of nodes NTXent, PairNTXent and PrototypeCE ran as before they
// became one node each (cosineSoftmaxCE): the references the fused ops are
// held to, loss and every gradient, bit for bit.

func unfusedNTXent(h *Node, tau float64) *Node {
	total := h.Value.Rows()
	n := total / 2
	z := L2NormalizeRows(h)
	sim := Scale(MatMulTransB(z, z), 1/tau)
	targets := make([]int, total)
	exclude := make([][]int, total)
	for i := range targets {
		targets[i] = (i + n) % total
		exclude[i] = []int{i}
	}
	return MaskedCrossEntropy(sim, targets, exclude)
}

func unfusedPairNTXent(a, b *Node, tau float64) *Node {
	return unfusedNTXent(ConcatRows(a, b), tau)
}

func unfusedPrototypeCE(z, protos *Node, assign []int, tau float64) *Node {
	logits := Scale(MatMulTransB(L2NormalizeRows(z), L2NormalizeRows(protos)), 1/tau)
	return CrossEntropy(logits, assign)
}

// softmaxLosses is one implementation of the three losses.
type softmaxLosses struct {
	ntxent func(h *Node, tau float64) *Node
	pair   func(a, b *Node, tau float64) *Node
	proto  func(z, protos *Node, assign []int, tau float64) *Node
}

var (
	fusedLosses   = softmaxLosses{NTXent, PairNTXent, PrototypeCE}
	unfusedLosses = softmaxLosses{unfusedNTXent, unfusedPairNTXent, unfusedPrototypeCE}
)

// lossGraph builds a scalar loss over params with one implementation of
// the softmax losses, from the leaves InputOn has put on tape tp.
type lossGraph func(tp *Tape, ps []*Param, l softmaxLosses) *Node

// oracleValue draws one element of an operand: with specials, one in five
// comes from the values the fused op must treat as the chain does — ±0,
// ±Inf, NaN, subnormals and magnitudes whose squares overflow.
func oracleValue(rng *rand.Rand, specials bool) float64 {
	if specials && rng.Intn(5) == 0 {
		return [...]float64{
			0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
			math.SmallestNonzeroFloat64, -0x1p-1060, 1e200, -3e250,
		}[rng.Intn(9)]
	}
	return rng.NormFloat64()
}

// fillOracle fills a parameter's value for one case. Some rows are special
// as a whole: all zero, or so short that their norm is below normEps (they
// pass through the normalization unchanged), or so long that their squares
// overflow (norm +Inf, gradient ±0 in every element); with specials, single
// elements of the others come from oracleValue.
func fillOracle(rng *rand.Rand, p *Param, specials bool) {
	v := p.Value
	n := v.Cols()
	for i := 0; i < v.Rows(); i++ {
		row := v.Row(i)
		kind := rng.Intn(12)
		for j := range row {
			switch kind {
			case 0:
				row[j] = 0
			case 1:
				row[j] = 1e-14 * rng.NormFloat64() / float64(n)
			case 2:
				row[j] = 1e200 * rng.NormFloat64()
			default:
				row[j] = oracleValue(rng, specials)
			}
		}
	}
}

// priorGrads fills every gradient with what other terms of a step's loss
// would have left there: ordinary values, and a share of −0, +0 and
// subnormals, so that a term reaching it as −0 rather than +0 shows.
func priorGrads(rng *rand.Rand, grads []float64) {
	for i := range grads {
		switch rng.Intn(4) {
		case 0:
			grads[i] = math.Copysign(0, -1)
		case 1:
			grads[i] = [...]float64{0, math.SmallestNonzeroFloat64, -0x1p-1060}[rng.Intn(3)]
		default:
			grads[i] = rng.NormFloat64()
		}
	}
}

// runLossGraph builds build with l on a tape over arena, runs Backward from
// prior into grads, and returns the loss with a copy of the gradients.
func runLossGraph(t testing.TB, arena *tensor.Arena, ps []*Param, grads, prior []float64, build lossGraph, l softmaxLosses) (float64, []float64) {
	t.Helper()
	tp := NewTape(arena)
	defer tp.Reset()
	copy(grads, prior)
	loss := build(tp, ps, l)
	if err := Backward(loss); err != nil {
		t.Fatal(err)
	}
	return loss.Value.At(0, 0), append([]float64(nil), grads...)
}

// checkMatchesUnfused runs build once with the fused losses and once with
// the unfused chains, from the same values and prior gradients, on one
// arena (so that the fused op's uninitialised buffers are recycled ones),
// and holds the loss and every gradient to the chain's, NaN ≡ NaN.
func checkMatchesUnfused(t testing.TB, ps []*Param, grads []float64, prior []float64, build lossGraph) error {
	t.Helper()
	arena := tensor.NewArena()
	wantLoss, want := runLossGraph(t, arena, ps, grads, prior, build, unfusedLosses)
	gotLoss, got := runLossGraph(t, arena, ps, grads, prior, build, fusedLosses)
	if !sameFloat(wantLoss, gotLoss) {
		return fmt.Errorf("loss %v (%#x), unfused %v (%#x)", gotLoss, math.Float64bits(gotLoss), wantLoss, math.Float64bits(wantLoss))
	}
	for i := range want {
		if !sameFloat(want[i], got[i]) {
			return fmt.Errorf("gradient element %d: %v (%#x), unfused %v (%#x)", i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return nil
}

// on puts a parameter's value on tp as a leaf and adds the parameter to
// it, so that the loss's inputs are intermediate nodes of a taped graph, as
// in a training step: their gradients start empty and are handed on.
func on(tp *Tape, p *Param) *Node {
	return Add(InputOn(tp, tensor.New(p.Value.Shape()...)), p.Node())
}

// hookGroups draws k ascending, disjoint, non-empty groups of rows of an
// n-row batch (some rows left out, as unconfident members are), their rows
// in group order, and each row's group.
func hookGroups(rng *rand.Rand, n, k int) (groups [][]int, rows, assign []int) {
	groups = make([][]int, k)
	for i := 0; i < n; i++ {
		g := i % k
		if i >= k && rng.Intn(4) == 0 {
			continue
		}
		groups[g] = append(groups[g], i)
	}
	for g, members := range groups {
		rows = append(rows, members...)
		for range members {
			assign = append(assign, g)
		}
	}
	return groups, rows, assign
}

// oracleGraph is a loss graph over parameters of the given shapes.
type oracleGraph struct {
	name   string
	shapes [][2]int
	build  lossGraph
}

// oracleGraphs are the graphs the fused losses are held to the chains in,
// for a batch of n pairs of d-wide rows:
//
//   - pair and ntxent: the loss straight on parameters, whose gradients
//     already hold other terms;
//   - hook: a Calibre step's loss — SimCLR's PairNTXent over a projection
//     of both views, plus L_n (PrototypeCE of gathered view-1 encodings
//     against view-2 GroupMean prototypes) and L_p (PairNTXent of both
//     views' GroupMean prototypes), scaled by a gate — in which the
//     prototype terms reach H1 and H2 before SimCLR's does;
//   - proto-params: PrototypeCE straight on parameters.
func oracleGraphs(rng *rand.Rand, n, d int, tau float64) []oracleGraph {
	k := 2 + rng.Intn(min(n, 9)-1)
	groups, rows, assign := hookGroups(rng, n, k)
	protoAssign := make([]int, n)
	for i := range protoAssign {
		protoAssign[i] = rng.Intn(k)
	}
	return []oracleGraph{
		{"pair", [][2]int{{n, d}, {n, d}}, func(tp *Tape, ps []*Param, l softmaxLosses) *Node {
			return l.pair(ps[0].Node(), ps[1].Node(), tau)
		}},
		{"ntxent", [][2]int{{2 * n, d}}, func(tp *Tape, ps []*Param, l softmaxLosses) *Node {
			return l.ntxent(ps[0].Node(), tau)
		}},
		{"hook", [][2]int{{n, d}, {n, d}, {d, d}}, func(tp *Tape, ps []*Param, l softmaxLosses) *Node {
			z1, z2, w := on(tp, ps[0]), on(tp, ps[1]), ps[2].Node()
			h1, h2 := Tanh(MatMul(z1, w)), Tanh(MatMul(z2, w))
			base := l.pair(h1, h2, tau)
			ln := l.proto(GatherRows(z1, rows), GroupMean(z2, groups), assign, tau)
			lp := l.pair(GroupMean(h1, groups), GroupMean(h2, groups), tau)
			return Add(base, Scale(Add(ln, lp), 0.75))
		}},
		{"proto-params", [][2]int{{n, d}, {k, d}}, func(tp *Tape, ps []*Param, l softmaxLosses) *Node {
			return l.proto(ps[0].Node(), ps[1].Node(), protoAssign, tau)
		}},
	}
}

// checkOracleCase builds the oracle graphs at n pairs of d-wide rows —
// those named, or every one when names is empty — and holds the fused
// losses to the chains in each.
func checkOracleCase(t testing.TB, rng *rand.Rand, n, d int, tau float64, specials bool, names ...string) error {
	t.Helper()
	for _, g := range oracleGraphs(rng, n, d, tau) {
		if len(names) > 0 && !slices.Contains(names, g.name) {
			continue
		}
		ps := make([]*Param, len(g.shapes))
		for i, s := range g.shapes {
			ps[i] = NewParam(fmt.Sprintf("p%d", i), s[0], s[1])
			fillOracle(rng, ps[i], specials && i < 2)
		}
		grads := lendGrads(t, ps...)
		prior := make([]float64, len(grads))
		priorGrads(rng, prior)
		if err := checkMatchesUnfused(t, ps, grads, prior, g.build); err != nil {
			return fmt.Errorf("%s: %w", g.name, err)
		}
	}
	return nil
}

// TestSoftmaxLossesMatchUnfusedChains holds NTXent, PairNTXent and
// PrototypeCE to the chains of nodes they replaced, loss and every
// gradient, bit for bit (NaN ≡ NaN), at every batch of N ∈ {2, 3, 4, 5, 31,
// 32, 33} pairs and width d ∈ {1, 7, 24, 25}, at two temperatures, with
// ordinary rows only and with special values among them.
func TestSoftmaxLossesMatchUnfusedChains(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, n := range []int{2, 3, 4, 5, 31, 32, 33} {
		for _, d := range []int{1, 7, 24, 25} {
			for _, tau := range []float64{0.5, 0.07} {
				for _, specials := range []bool{false, true} {
					if err := checkOracleCase(t, rng, n, d, tau, specials); err != nil {
						t.Fatalf("N=%d d=%d tau=%v specials=%v: %v", n, d, tau, specials, err)
					}
				}
			}
		}
	}
}

// TestPrototypeCEOnItsOwnPrototypes is PrototypeCE against protos built from
// z itself (GroupMean(z)), where the one node hands z its term before
// GroupMean's backward runs and the chain handed it after: on a gradient
// that starts at +0, the two terms commute, so the bits still match.
func TestPrototypeCEOnItsOwnPrototypes(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for _, n := range []int{2, 5, 32} {
		z := NewParam("z", n, 7)
		fillOracle(rng, z, false)
		groups, _, _ := hookGroups(rng, n, 2)
		assign := make([]int, n)
		for i := range assign {
			assign[i] = i % 2
		}
		grads := lendGrads(t, z)
		build := func(tp *Tape, ps []*Param, l softmaxLosses) *Node {
			zn := ps[0].Node()
			return l.proto(zn, GroupMean(zn, groups), assign, 0.5)
		}
		if err := checkMatchesUnfused(t, []*Param{z}, grads, make([]float64, len(grads)), build); err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
	}
}

// FuzzPairNTXentMatchesUnfused is TestSoftmaxLossesMatchUnfusedChains for
// PairNTXent and NTXent (the pair, ntxent and hook graphs) at the batch,
// width, temperature and values the fuzzer picks.
func FuzzPairNTXentMatchesUnfused(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(1), 0.5, false)
	f.Add(int64(2), uint8(5), uint8(7), 0.07, true)
	f.Add(int64(3), uint8(32), uint8(24), 0.5, true)
	f.Add(int64(4), uint8(33), uint8(25), 1.0, false)
	f.Fuzz(func(t *testing.T, seed int64, n, d uint8, tau float64, specials bool) {
		fuzzOracle(t, seed, n, d, tau, specials, "pair", "ntxent", "hook")
	})
}

// FuzzPrototypeCEMatchesUnfused is the same for PrototypeCE (the
// proto-params and hook graphs).
func FuzzPrototypeCEMatchesUnfused(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(1), 0.5, false)
	f.Add(int64(2), uint8(5), uint8(7), 0.07, true)
	f.Add(int64(3), uint8(31), uint8(24), 0.5, true)
	f.Add(int64(4), uint8(33), uint8(25), 2.0, false)
	f.Fuzz(func(t *testing.T, seed int64, n, d uint8, tau float64, specials bool) {
		fuzzOracle(t, seed, n, d, tau, specials, "proto-params", "hook")
	})
}

// fuzzOracle runs the named oracle graphs at 2–41 pairs of 1–40-wide rows
// and a temperature in (0.01, 10], all from the fuzzer's values.
func fuzzOracle(t *testing.T, seed int64, n, d uint8, tau float64, specials bool, names ...string) {
	rows, width := 2+int(n)%40, 1+int(d)%40
	if !(tau > 0.01 && tau <= 10) {
		tau = 0.5
	}
	if err := checkOracleCase(t, rand.New(rand.NewSource(seed)), rows, width, tau, specials, names...); err != nil {
		t.Fatalf("N=%d d=%d tau=%v specials=%v: %v", rows, width, tau, specials, err)
	}
}
