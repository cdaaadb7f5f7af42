package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"calibre/internal/tensor"
)

// serialSGD is the optimizer's clip and step as they ran before either went
// through tensor's row primitives — one serial sum of squares, a scalar
// scale, a scalar step loop — over copies of an SGD's spans: the reference
// ClipGradNorm and Step are held to bit for bit.
type serialSGD struct {
	lr, momentum, decay float64
	values, grads       [][]float64
	velocity            []float64
}

func newSerialSGD(s *SGD) *serialSGD {
	r := &serialSGD{lr: s.LR, momentum: s.Momentum, decay: s.WeightDecay}
	n := 0
	for _, sp := range s.spans {
		r.values = append(r.values, append([]float64(nil), sp.value...))
		r.grads = append(r.grads, append([]float64(nil), sp.grad...))
		n += len(sp.value)
	}
	r.velocity = make([]float64, n)
	return r
}

func (s *serialSGD) clip(maxNorm float64) float64 {
	var ss float64
	for _, gs := range s.grads {
		for _, g := range gs {
			ss += g * g
		}
	}
	norm := math.Sqrt(ss)
	if norm <= maxNorm || norm == 0 {
		return norm
	}
	scale := maxNorm / norm
	for _, gs := range s.grads {
		for j := range gs {
			gs[j] *= scale
		}
	}
	return norm
}

func (s *serialSGD) step() {
	off := 0
	for i, v := range s.values {
		g := s.grads[i]
		if s.momentum != 0 {
			vel := s.velocity[off:][:len(v)]
			for j := range v {
				grad := g[j] + s.decay*v[j]
				vel[j] = s.momentum*vel[j] + grad
				v[j] -= s.lr * vel[j]
			}
			off += len(v)
			continue
		}
		for j := range v {
			grad := g[j] + s.decay*v[j]
			v[j] -= s.lr * grad
		}
	}
}

// sameFloats is bitwise equality, except that any NaN equals any NaN: which
// of two NaN operands an instruction keeps depends on the operand order the
// compiler picked, as in tensor's oracle tests.
func sameFloats(want, got []float64) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d elements, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if math.Float64bits(w) != math.Float64bits(g) && !(math.IsNaN(w) && math.IsNaN(g)) {
			return fmt.Errorf("element %d: want %v (%#x), got %v (%#x)", i, w, math.Float64bits(w), g, math.Float64bits(g))
		}
	}
	return nil
}

// clipModule builds the parameters a clip case runs on: three built apart
// (three spans of 15, 5 and 63 values, one gradient vector) or one laid-out
// MLP (one span of 66), values drawn from seed, gradients left to the case.
func clipModule(spans int, seed int64) handBuilt {
	rng := rand.New(rand.NewSource(seed))
	var ps []*Param
	if spans == 1 {
		ps = MLP(rng, "m", 5, 7, 3).Params()
	} else {
		ps = []*Param{NewParam("a", 3, 5), NewParam("b", 1, 5), NewParam("c", 7, 9)}
	}
	for _, p := range ps {
		for j := range p.Value.Data() {
			p.Value.Data()[j] = rng.NormFloat64()
		}
	}
	return handBuilt{ps}
}

// serialNorm is the norm the old clip decided with: the square root of the
// squares summed left to right over the spans.
func serialNorm(s *SGD) float64 {
	var ss float64
	for _, sp := range s.spans {
		for _, g := range sp.grad {
			ss += g * g
		}
	}
	return math.Sqrt(ss)
}

// TestClipAndStepMatchSerialLoops holds ClipGradNorm and Step to the serial
// loops they replaced, bit for bit on values, gradients and velocity, over
// three steps of each case — clip norms far below, just below, inside the
// bound's margin on either side of, at, just above and far above the
// gradients' norm, all-zero gradients (maxNorm 1 and 0), NaN and ±Inf
// gradients — on three spans and on one, with momentum and with weight
// decay. The returned norm is the serial one whenever gradients are scaled,
// and within a few units in the last place of it otherwise.
func TestClipAndStepMatchSerialLoops(t *testing.T) {
	cases := []struct {
		name string
		grad func(rng *rand.Rand, j int) float64
		clip func(norm float64) float64
		// lowEstimate redraws the gradients until the chained sum of
		// squares is below the serial one, where a check without the
		// bound's widening would decide that nothing clips.
		lowEstimate bool
	}{
		{"far below", normal, func(n float64) float64 { return 10 * n }, false},
		{"just below", normal, func(n float64) float64 { return math.Nextafter(n, math.Inf(1)) }, false},
		{"below inside the margin", normal, func(n float64) float64 { return n * (1 + 1e-9) }, false},
		{"at", normal, func(n float64) float64 { return n }, false},
		{"above inside the margin", normal, func(n float64) float64 { return n * (1 - 1e-9) }, false},
		{"just above", normal, func(n float64) float64 { return math.Nextafter(n, 0) }, false},
		{"far above", normal, func(n float64) float64 { return n / 10 }, false},
		{"just above, chained sum below", normal, func(n float64) float64 { return math.Nextafter(n, 0) }, true},
		{"two below, chained sum below", normal, func(n float64) float64 { return math.Nextafter(math.Nextafter(n, 0), 0) }, true},
		{"all zero", func(_ *rand.Rand, j int) float64 { return math.Copysign(0, float64(j%2)-0.5) }, func(float64) float64 { return 1 }, false},
		{"all zero, clip 0", func(*rand.Rand, int) float64 { return 0 }, func(float64) float64 { return 0 }, false},
		{"NaN", func(rng *rand.Rand, j int) float64 {
			if j == 40 {
				return math.NaN()
			}
			return rng.NormFloat64()
		}, func(float64) float64 { return 1 }, false},
		{"Inf", func(rng *rand.Rand, j int) float64 {
			switch j {
			case 3:
				return math.Inf(1)
			case 70:
				return math.Inf(-1)
			}
			return rng.NormFloat64()
		}, func(float64) float64 { return 1 }, false},
	}
	for _, spans := range []int{3, 1} {
		for _, hyper := range [][3]float64{{0.05, 0.9, 0}, {0.1, 0, 5e-4}} {
			for ci, c := range cases {
				name := fmt.Sprintf("%s/%d spans/lr=%v mom=%v wd=%v", c.name, spans, hyper[0], hyper[1], hyper[2])
				m := clipModule(spans, int64(ci))
				opt := NewSGD(m, hyper[0], hyper[1], hyper[2])
				if len(opt.spans) != spans {
					t.Fatalf("%s: the optimizer sees %d spans", name, len(opt.spans))
				}
				rng := rand.New(rand.NewSource(int64(100 + ci)))
				for draw := 0; ; draw++ {
					j, est := 0, 0.0
					for _, sp := range opt.spans {
						for i := range sp.grad {
							sp.grad[i] = c.grad(rng, j)
							j++
						}
						est += tensor.SumSquares(sp.grad)
					}
					if !c.lowEstimate || est < math.Nextafter(math.Nextafter(serialNorm(opt)*serialNorm(opt), 0), 0) {
						break
					}
					if draw == 10000 {
						t.Fatalf("%s: no draw has a chained sum of squares below the serial one", name)
					}
				}
				maxNorm := c.clip(serialNorm(opt))
				ref := newSerialSGD(opt)
				for step := 0; step < 3; step++ {
					want := ref.clip(maxNorm)
					scaled := !(want <= maxNorm || want == 0)
					got := opt.ClipGradNorm(maxNorm)
					switch {
					case scaled || math.IsNaN(want) || math.IsInf(want, 0):
						if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
							t.Fatalf("%s step %d: ClipGradNorm = %v, the serial norm is %v", name, step, got, want)
						}
					case math.Abs(got-want) > 1e-14*want:
						t.Fatalf("%s step %d: ClipGradNorm = %v, far from the serial norm %v", name, step, got, want)
					}
					opt.Step()
					ref.step()
					for k, sp := range opt.spans {
						if err := sameFloats(ref.grads[k], sp.grad); err != nil {
							t.Fatalf("%s step %d span %d gradients: %v", name, step, k, err)
						}
						if err := sameFloats(ref.values[k], sp.value); err != nil {
							t.Fatalf("%s step %d span %d values: %v", name, step, k, err)
						}
					}
					if opt.velocity != nil {
						if err := sameFloats(ref.velocity, opt.velocity); err != nil {
							t.Fatalf("%s step %d velocity: %v", name, step, err)
						}
					}
				}
				opt.Release()
			}
		}
	}
}

func normal(rng *rand.Rand, _ int) float64 { return rng.NormFloat64() }

// TestClipBoundDecidesOnlyBelowTheNorm drives the bound check with the
// serial norm's neighbourhood at many lengths and magnitudes: whenever it
// decides, the serial norm is at most maxNorm; and it does decide once
// maxNorm is clear of the margin, so the fast path is not dead.
func TestClipBoundDecidesOnlyBelowTheNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(300)
		g := make([]float64, n)
		scale := math.Ldexp(1, rng.Intn(400)-200)
		for i := range g {
			g[i] = rng.NormFloat64() * scale
		}
		var ss, est float64
		for i := n - 1; i >= 0; i-- { // another order than the serial one
			est += g[i] * g[i]
		}
		for _, x := range g {
			ss += x * x
		}
		norm := math.Sqrt(ss)
		below := math.Nextafter(norm, 0)
		for _, maxNorm := range []float64{norm * (1 - 1e-6), norm * (1 - 1e-12), math.Nextafter(below, 0), below, norm,
			math.Nextafter(norm, 2*norm), norm * (1 + 1e-12), norm * (1 + 4e-7), norm * (1 + 1e-6)} {
			if clipBoundDecides(est, n, maxNorm) && norm > maxNorm {
				t.Fatalf("n=%d: the bound decided at maxNorm %v, the serial norm is %v", n, maxNorm, norm)
			}
		}
		if !clipBoundDecides(est, n, norm*(1+1e-5)) {
			t.Fatalf("n=%d: the bound did not decide 1e-5 above the norm %v", n, norm)
		}
	}
	for _, c := range []struct {
		est, maxNorm float64
		n            int
	}{
		{math.NaN(), 1, 4}, {math.Inf(1), math.Inf(1), 4}, {1, -1, 4}, {0, math.NaN(), 4},
		{math.MaxFloat64, math.Inf(1), 4},
	} {
		if clipBoundDecides(c.est, c.n, c.maxNorm) {
			t.Errorf("clipBoundDecides(%v, %d, %v) decided; the serial sum must run", c.est, c.n, c.maxNorm)
		}
	}
	if strconv.IntSize == 64 && clipBoundDecides(1, math.MaxInt, 2) {
		t.Error("clipBoundDecides decided for a length at which (n−1)u is not small")
	}
}

// TestClipRescalesOverflowingFiniteGradients: finite gradients whose squares
// sum past the float64 range are clipped to maxNorm in their own direction,
// not zeroed, and the returned norm is their norm, taken relative to the
// largest magnitude.
func TestClipRescalesOverflowingFiniteGradients(t *testing.T) {
	m := clipModule(3, 1)
	opt := NewSGD(m, 0.1, 0, 0)
	var orig []float64
	j := 0
	for _, sp := range opt.spans {
		for i := range sp.grad {
			sp.grad[i] = [...]float64{1e200, -3e199, 1e-300, 0, 7e180, -1e154}[j%6]
			orig = append(orig, sp.grad[i])
			j++
		}
	}
	var rel float64
	for _, g := range orig {
		rel += (g / 1e200) * (g / 1e200)
	}
	wantNorm := 1e200 * math.Sqrt(rel)
	got := opt.ClipGradNorm(5)
	if math.Abs(got-wantNorm) > 1e-12*wantNorm {
		t.Fatalf("ClipGradNorm = %v, want the pre-clip norm %v", got, wantNorm)
	}
	var ss float64
	j = 0
	for _, sp := range opt.spans {
		for _, g := range sp.grad {
			ss += g * g
			if want := orig[j] / wantNorm * 5; math.Abs(g-want) > 1e-12*math.Abs(want) || math.Signbit(g) != math.Signbit(orig[j]) {
				t.Fatalf("gradient %d clipped to %v, want %v: not the same direction", j, g, want)
			}
			j++
		}
	}
	if post := math.Sqrt(ss); math.Abs(post-5) > 1e-12 {
		t.Fatalf("post-clip norm %v, want 5", post)
	}
	// Finite gradients whose norm overflows but stays below maxNorm's
	// square root range are left as they are.
	for _, sp := range opt.spans {
		for i := range sp.grad {
			sp.grad[i] = 1e200
		}
	}
	if got := opt.ClipGradNorm(1e300); got <= 1e200 || math.IsInf(got, 0) || opt.spans[0].grad[0] != 1e200 {
		t.Fatalf("ClipGradNorm(1e300) of gradients 1e200 = %v, scaled them to %v; want their finite norm and no scaling", got, opt.spans[0].grad[0])
	}
}
