package nn

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"calibre/internal/param"
	"calibre/internal/tensor"
)

// handBuilt is a module assembled from parts that were built apart, as a
// struct literal over separately constructed layers is.
type handBuilt struct{ params []*Param }

func (h handBuilt) Params() []*Param { return h.params }

// lendGrads lends ps their gradients, cleared, as a local update does
// (Tape.LendGrads), until the test ends: what a test that backpropagates
// into parameters outside a trainer binds them to. Parameters built apart
// are laid out into one values vector first.
func lendGrads(t testing.TB, ps ...*Param) []float64 {
	tp := NewTape(nil)
	t.Cleanup(tp.returnGrads)
	g := tp.LendGrads(handBuilt{ps})
	clear(g)
	return g
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestConstructedModuleIsOneVector: a module from the constructors is laid
// out as it is built — Values is the parameters' own storage, in Params()
// order, with the weights the per-layer constructors draw — and has no
// gradient storage until a local update lends it one vector, whose windows
// are the parameters' gradients in the same order.
func TestConstructedModuleIsOneVector(t *testing.T) {
	m := MLP(rand.New(rand.NewSource(1)), "m", 5, 7, 3)
	values := Values(m)
	if len(values) != MLPSize(5, 7, 3) || len(values) != ParamCount(m) {
		t.Fatalf("Values has %d elements, the model %d (MLPSize %d)", len(values), ParamCount(m), MLPSize(5, 7, 3))
	}
	for _, p := range m.Params() {
		if p.Grad.Data() != nil || p.Grad.Rows() != p.Value.Rows() || p.Grad.Cols() != p.Value.Cols() {
			t.Fatalf("parameter %s: gradient of shape %v with %d elements before any lend, want its value's shape and no storage",
				p.Name, p.Grad.Shape(), p.Grad.Len())
		}
	}
	if Grads(m) != nil {
		t.Fatal("Grads of a model that was never lent gradients must be nil")
	}
	grads := lendGrads(t, m.Params()...)
	if len(grads) != len(values) {
		t.Fatalf("the lent gradient vector has %d elements, the model %d", len(grads), len(values))
	}
	off := 0
	for _, p := range m.Params() {
		v, g := p.Value.Data(), p.Grad.Data()
		if &v[0] != &values[off] || &g[0] != &grads[off] {
			t.Fatalf("parameter %s is not a view of the model's vectors at offset %d", p.Name, off)
		}
		off += len(v)
	}
	// The same draws as layers built one at a time.
	rng := rand.New(rand.NewSource(1))
	var apart []float64
	for _, l := range []*Linear{NewLinear(rng, 5, 7, "m.l0"), NewLinear(rng, 7, 3, "m.l1")} {
		apart = append(apart, l.W.Value.Data()...)
		apart = append(apart, l.B.Value.Data()...)
	}
	if !sameBits(values, apart) {
		t.Fatal("an MLP built in one layout draws other weights than its layers built apart")
	}
	// Writing the vector is writing the model, and the other way round.
	values[3] = 42
	if m.Params()[0].Value.Data()[3] != 42 {
		t.Fatal("a write to Values did not reach the parameter")
	}
	m.Params()[3].Grad.Data()[1] = -7
	if grads[len(grads)-2] != -7 || Grads(m)[len(grads)-2] != -7 {
		t.Fatal("a write to a parameter's gradient did not reach the lent vector")
	}
	if cap(values) != len(values) || cap(Values(m.Layers[0].(*Linear))) != LinearSize(5, 7) {
		t.Fatal("a vector handed out must not be appendable into its neighbour")
	}
}

// TestLayoutAllocatesNoGradients: building a model allocates its values
// vector and no gradient vector, which the model would otherwise keep for
// life; a local update lends one instead.
func TestLayoutAllocatesNoGradients(t *testing.T) {
	const in, hidden, out = 64, 256, 64
	vector := uint64(8 * MLPSize(in, hidden, out))
	var built *Sequential
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	built = MLP(rand.New(rand.NewSource(9)), "m", in, hidden, out)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= vector+vector/10 {
		t.Fatalf("building a model of %d bytes of values allocated %d bytes: a gradient vector is kept beside it", vector, got)
	}
	if Grads(built) != nil {
		t.Fatal("a built model has gradient storage")
	}
}

// TestLentGradsPerRunningTrainer: local updates running at once are lent
// distinct gradient vectors, each the storage of its own model's gradients
// for the length of the update, and every one is back in the process's pool
// once they have released their tapes, with the models left without
// gradient storage. The pool serves every trainer of a process, so this is a
// test to run under -race.
func TestLentGradsPerRunningTrainer(t *testing.T) {
	const lenders = 4
	lent := make([][]float64, lenders)
	models := make([]*Sequential, lenders)
	var holding, done sync.WaitGroup
	holding.Add(lenders)
	done.Add(lenders)
	release := make(chan struct{})
	for i := range lent {
		go func() {
			defer done.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			m := MLP(rng, "lend", 6, 5, 3)
			tp := BorrowTape()
			g := tp.LendGrads(m)
			models[i], lent[i] = m, g
			clear(g)
			loss := CrossEntropy(m.Forward(InputOn(tp, tensor.RandN(rng, 1, 4, 6))), tp.Ints(4))
			if err := Backward(loss); err != nil {
				t.Error(err)
			}
			if VecNorm2(g) == 0 {
				t.Error("a backward pass left the lent vector untouched")
			}
			holding.Done()
			<-release // every lender holds its gradients, written, at once
			tp.Release()
		}()
	}
	holding.Wait()
	heldIdle := param.Idle()
	close(release)
	done.Wait()
	afterIdle := param.Idle()

	for i, g := range lent {
		for j := range i {
			if &g[0] == &lent[j][0] {
				t.Fatalf("lenders %d and %d were lent one gradient vector", j, i)
			}
		}
		if Grads(models[i]) != nil {
			t.Fatalf("model %d keeps gradient storage after its update released it", i)
		}
	}
	if afterIdle-heldIdle != lenders {
		t.Fatalf("the pool holds %d more vectors after %d lenders released, want all %d back", afterIdle-heldIdle, lenders, lenders)
	}
}

// TestHandBuiltModuleIsLaidOutOnFirstUse: parameters that were built apart
// are moved into one layout, values included, by the first whole-model
// operation; later ones find them there. Their gradient headers stay, with
// no storage until a lend binds them to windows of one vector.
func TestHandBuiltModuleIsLaidOutOnFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := NewLinear(rng, 4, 3, "a"), NewLinear(rng, 3, 2, "b")
	extra := NewParam("extra", 2, 2)
	extra.InitHe(rng, 2)
	m := handBuilt{append(append(a.Params(), b.Params()...), extra)}
	var want []float64
	for _, p := range m.Params() {
		want = append(want, p.Value.Data()...)
	}
	node, grad := a.W.Node(), a.W.Grad

	values := Values(m)
	if !sameBits(values, want) {
		t.Fatal("laying a module out changed its values")
	}
	off := 0
	for _, p := range m.Params() {
		if &p.Value.Data()[0] != &values[off] {
			t.Fatalf("parameter %s was not rebound into the layout", p.Name)
		}
		if p.Grad.Data() != nil {
			t.Fatalf("parameter %s gained gradient storage in the move", p.Name)
		}
		if p.Value.Rows()*p.Value.Cols() != p.Value.Len() {
			t.Fatalf("parameter %s lost its shape: %v", p.Name, p.Value.Shape())
		}
		off += p.Value.Len()
	}
	if a.W.Node() == node || a.W.Node().Value != a.W.Value || a.W.Grad != grad {
		t.Fatal("the cached leaf must follow the parameter into the layout, the gradient header stay")
	}
	if again := Values(m); &again[0] != &values[0] {
		t.Fatal("a second Values laid the module out again")
	}
	// A lend repoints the gradient headers: the cached leaf stays valid.
	leaf := a.W.Node()
	g := lendGrads(t, m.Params()...)
	if a.W.Node() != leaf || &Grads(m)[0] != &g[0] || len(Grads(m)) != len(values) {
		t.Fatal("a lend must bind the gradients to one vector under the same headers")
	}
	// A part of the laid-out module is a run of it.
	if sub := Values(b); &sub[0] != &values[LinearSize(4, 3)] {
		t.Fatal("a layer's Values must be its window of the module's")
	}
	if err := Unflatten(m, make([]float64, len(values)+1)); err == nil {
		t.Fatal("Unflatten must refuse a vector of another length")
	}
}

// TestFlattenCopiesUnflattenLoads: Flatten is the copying form, Unflatten one
// copy into the model's own vector.
func TestFlattenCopiesUnflattenLoads(t *testing.T) {
	m := MLP(rand.New(rand.NewSource(3)), "m", 3, 4, 2)
	flat := Flatten(m)
	flat[0]++
	if Values(m)[0] == flat[0] {
		t.Fatal("Flatten must return a copy")
	}
	if err := Unflatten(m, flat); err != nil {
		t.Fatal(err)
	}
	if !sameBits(Values(m), flat) {
		t.Fatal("Unflatten did not load the vector")
	}
	flat[1]++
	if Values(m)[1] == flat[1] {
		t.Fatal("Unflatten must copy, not adopt, the caller's vector")
	}
}

// TestParamsAndOptimizerAllocations: the parameter list is cached, the
// optimizer holds windows of the model and the whole-model vectors are found,
// not built.
func TestParamsAndOptimizerAllocations(t *testing.T) {
	m := MLP(rand.New(rand.NewSource(4)), "m", 8, 8, 8, 4)
	lin := m.Layers[0].(*Linear)
	lendGrads(t, m.Params()...)
	for name, fn := range map[string]func(){
		"Linear.Params":     func() { lin.Params() },
		"Sequential.Params": func() { m.Params() },
		"Values":            func() { Values(m) },
		"Grads":             func() { Grads(m) },
		"Unflatten":         func() { _ = Unflatten(m, Values(m)) },
	} {
		if n := testing.AllocsPerRun(10, fn); n != 0 {
			t.Errorf("%s allocates %v objects a call, want 0", name, n)
		}
	}
	// The optimizer and its one run of parameters; no tensor per parameter,
	// and no velocity before the first step.
	if n := testing.AllocsPerRun(10, func() { NewSGD(m, 0.1, 0.9, 0) }); n > 2 {
		t.Errorf("NewSGD allocates %v objects, want the optimizer and its span list", n)
	}
	opt := NewSGD(m, 0.1, 0.9, 0)
	if len(opt.spans) != 1 || len(opt.spans[0].value) != ParamCount(m) {
		t.Fatalf("a constructed model is one run of %d scalars, the optimizer sees %d runs", ParamCount(m), len(opt.spans))
	}
	opt.Step()
	opt.Release()
	if n := testing.AllocsPerRun(10, func() { opt.Step(); opt.Release() }); n != 0 {
		t.Errorf("a step on a released optimizer allocates %v objects: its velocity must come back from the pool", n)
	}
}

// referenceStep is the per-parameter optimizer the flat one replaced:
// clipping over the parameters' gradients in order, then momentum SGD with a
// velocity tensor per parameter.
type referenceStep struct {
	params   []*Param
	velocity [][]float64
}

func (r *referenceStep) step(lr, momentum, decay, clip float64) {
	if r.velocity == nil {
		for _, p := range r.params {
			r.velocity = append(r.velocity, make([]float64, p.Value.Len()))
		}
	}
	var ss float64
	for _, p := range r.params {
		for _, g := range p.Grad.Data() {
			ss += g * g
		}
	}
	if norm := math.Sqrt(ss); norm > clip {
		for _, p := range r.params {
			for j := range p.Grad.Data() {
				p.Grad.Data()[j] *= clip / norm
			}
		}
	}
	for i, p := range r.params {
		v, g, vel := p.Value.Data(), p.Grad.Data(), r.velocity[i]
		for j := range v {
			grad := g[j] + decay*v[j]
			vel[j] = momentum*vel[j] + grad
			v[j] -= lr * vel[j]
		}
	}
}

// TestSGDOverASubsetTouchesOnlyItsRanges: an optimizer over part of a model
// — a frozen encoder's head, or layers that are not even neighbours — steps,
// clips and clears exactly those parameters, bit for bit as the
// per-parameter optimizer did, and leaves the rest of the vector alone.
func TestSGDOverASubsetTouchesOnlyItsRanges(t *testing.T) {
	build := func() (*Sequential, handBuilt) {
		m := MLP(rand.New(rand.NewSource(5)), "m", 6, 5, 4, 3)
		ps := m.Params() // l0.W l0.B l1.W l1.B l2.W l2.B
		rng := rand.New(rand.NewSource(6))
		for i, g := 0, lendGrads(t, ps...); i < len(g); i++ {
			g[i] = rng.NormFloat64()
		}
		return m, handBuilt{[]*Param{ps[0], ps[1], ps[4], ps[5]}} // first and last layer
	}
	flat, flatSub := build()
	ref, refSub := build()
	opt := NewSGD(flatSub, 0.05, 0.9, 0.01)
	if len(opt.spans) != 2 {
		t.Fatalf("two separate layers are two runs, the optimizer sees %d", len(opt.spans))
	}
	reference := &referenceStep{params: refSub.params}
	frozen := append([]float64(nil), Values(flat.Layers[2].(*Linear))...)
	frozenGrad := append([]float64(nil), Grads(flat.Layers[2].(*Linear))...)
	for step := 0; step < 3; step++ {
		opt.ClipGradNorm(0.5)
		opt.Step()
		reference.step(0.05, 0.9, 0.01, 0.5)
		if !sameBits(Values(flat), Values(ref)) || !sameBits(Grads(flat), Grads(ref)) {
			t.Fatalf("step %d: the flat optimizer and the per-parameter one disagree", step)
		}
	}
	if !sameBits(Values(flat.Layers[2].(*Linear)), frozen) || !sameBits(Grads(flat.Layers[2].(*Linear)), frozenGrad) {
		t.Fatal("a layer outside the optimizer's subset was stepped or clipped")
	}
	opt.ZeroGrad()
	for i, p := range flat.Params() {
		zeroed := p.Grad.Data()[0] == 0
		if inSubset := i < 2 || i > 3; zeroed != inSubset {
			t.Fatalf("ZeroGrad on %s: zeroed=%v, in the subset=%v", p.Name, zeroed, inSubset)
		}
	}
	// The head of a model is one run: what a frozen encoder trains.
	if head := NewSGD(flat.Layers[4].(*Linear), 0.1, 0, 0); len(head.spans) != 1 || len(head.spans[0].value) != LinearSize(4, 3) {
		t.Fatalf("a layer is one run of its %d scalars, the optimizer sees %+v", LinearSize(4, 3), head.spans)
	}
}

// TestVelocityIsBorrowedZeroedAndShared: a released velocity serves the next
// optimizer from zero, and a released gradient vector the next update as
// if it were, whatever they held; updates running at once never share one
// (run under -race).
func TestVelocityIsBorrowedZeroedAndShared(t *testing.T) {
	train := func(seed int64) []float64 {
		m := MLP(rand.New(rand.NewSource(seed)), "m", 4, 6, 2)
		x := tensor.RandN(rand.New(rand.NewSource(seed+1)), 1, 8, 4)
		tp := BorrowTape()
		defer tp.Release()
		grads := tp.LendGrads(m)
		loop := StepLoop{
			Opt:   NewSGD(m, 0.1, 0.9, 0),
			Grads: grads,
			Loss:  func() (*Node, error) { return CrossEntropy(ForwardTensor(m, x), []int{0, 1, 0, 1, 1, 0, 1, 0}), nil },
		}
		if _, err := loop.Run(4); err != nil {
			t.Error(err)
		}
		if loop.Opt.velocity != nil {
			t.Error("Run must release the optimizer's velocity")
		}
		return Flatten(m)
	}
	alone := train(7) // leaves a velocity full of momentum and gradients in the pool
	if !sameBits(train(7), alone) {
		t.Fatal("a recycled velocity changed a run: it must come back zeroed")
	}
	var wg sync.WaitGroup
	results := make([][]float64, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = train(7)
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if !sameBits(r, alone) {
			t.Fatalf("concurrent run %d diverged: optimizers shared a velocity", i)
		}
	}
}

// TestSGDRefusesGradientsItsParametersLeft: an optimizer built before a
// local update lent the gradients would step by storage no backward pass
// writes; Step panics instead.
func TestSGDRefusesGradientsItsParametersLeft(t *testing.T) {
	m := MLP(rand.New(rand.NewSource(10)), "m", 3, 2)
	opt := NewSGD(m, 0.1, 0, 0) // binds gradient storage of the model's own
	opt.Step()
	lendGrads(t, m.Params()...)
	defer func() {
		if recover() == nil {
			t.Fatal("Step on gradients the parameters have left must panic")
		}
	}()
	opt.Step()
}

// TestSGDRefusesStorageItsParametersLeft: an optimizer built over parts that
// a later whole-model operation laid out would step dead storage and train
// nothing; Step panics instead.
func TestSGDRefusesStorageItsParametersLeft(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a, b := NewLinear(rng, 3, 2, "a"), NewLinear(rng, 2, 2, "b")
	m := handBuilt{append(a.Params(), b.Params()...)}
	opt := NewSGD(m, 0.1, 0, 0)
	opt.Step() // the parts where they were built: fine
	Values(m)  // lays the module out
	defer func() {
		if recover() == nil {
			t.Fatal("Step on storage the parameters have left must panic")
		}
	}()
	opt.Step()
}
