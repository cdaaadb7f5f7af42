// Package ssl implements the self-supervised learning methods the Calibre
// paper builds on: SimCLR, BYOL, SimSiam, MoCoV2, SwAV and SMoG. All methods
// share a Backbone (encoder θb + projector θh, the paper's global model θ)
// and differ only in how they turn two augmented views into a loss.
//
// All backbone and loss matrix products run on internal/tensor's shared
// parallel kernel pool (sized with tensor.SetWorkers or
// CALIBRE_KERNEL_WORKERS); per-step results are bit-identical for any pool
// size, so federated runs stay reproducible under concurrency.
package ssl

import (
	"fmt"
	"math/rand"

	"calibre/internal/kmeans"
	"calibre/internal/nn"
	"calibre/internal/tensor"
)

// Arch fixes the backbone architecture. The paper uses a ResNet-18 encoder
// with 512-d features; this reproduction uses an MLP encoder on synthetic
// observations (ARCHITECTURE.md "Synthetic substitutions") with configurable
// widths.
type Arch struct {
	InputDim  int
	HiddenDim int
	FeatDim   int // encoder output z (the representation used for personalization)
	ProjDim   int // projector output h (the representation used by SSL losses)
}

// DefaultArch returns the architecture used by the CI-scale experiments.
func DefaultArch(inputDim int) Arch {
	return Arch{InputDim: inputDim, HiddenDim: 96, FeatDim: 48, ProjDim: 24}
}

// Backbone is the global model θ: Encoder (θb) and Projector (θh).
type Backbone struct {
	Arch      Arch
	Encoder   *nn.Sequential
	Projector *nn.Sequential

	params []*nn.Param // cached by Params
}

// NewBackbone builds a backbone with freshly initialized weights, encoder
// then projector in one layout.
func NewBackbone(rng *rand.Rand, arch Arch) *Backbone {
	lay := nn.NewLayout(nn.MLPSize(arch.InputDim, arch.HiddenDim, arch.FeatDim) + nn.MLPSize(arch.FeatDim, arch.FeatDim, arch.ProjDim))
	return &Backbone{
		Arch:      arch,
		Encoder:   lay.MLP(rng, "enc", arch.InputDim, arch.HiddenDim, arch.FeatDim),
		Projector: lay.MLP(rng, "proj", arch.FeatDim, arch.FeatDim, arch.ProjDim),
	}
}

// Params returns encoder parameters followed by projector parameters.
func (b *Backbone) Params() []*nn.Param {
	if b.params == nil {
		b.params = append(append(b.params, b.Encoder.Params()...), b.Projector.Params()...)
	}
	return b.params
}

// Encode runs the encoder on a constant input batch, returning the z node.
func (b *Backbone) Encode(x *tensor.Tensor) *nn.Node {
	return b.Encoder.Forward(nn.Input(x))
}

// EncodeOn is Encode with the graph's buffers drawn from tape's arena (nil
// tape falls back to heap allocation). The returned node — and everything
// derived from it — becomes invalid at the tape's next Reset.
func (b *Backbone) EncodeOn(tp *nn.Tape, x *tensor.Tensor) *nn.Node {
	return b.Encoder.Forward(nn.InputOn(tp, x))
}

// Project runs the projector on an encoding node.
func (b *Backbone) Project(z *nn.Node) *nn.Node {
	return b.Projector.Forward(z)
}

// EncodeValue runs the encoder outside any gradient context and returns the
// raw feature matrix. Used during personalization and for embeddings.
func (b *Backbone) EncodeValue(x *tensor.Tensor) *tensor.Tensor {
	return b.Encode(x).Value
}

// Clone returns a deep copy of the backbone (used for target networks).
func (b *Backbone) Clone(rng *rand.Rand) (*Backbone, error) {
	c := NewBackbone(rng, b.Arch)
	if err := nn.CopyParams(c.Encoder, b.Encoder); err != nil {
		return nil, fmt.Errorf("ssl: clone encoder: %w", err)
	}
	if err := nn.CopyParams(c.Projector, b.Projector); err != nil {
		return nil, fmt.Errorf("ssl: clone projector: %w", err)
	}
	return c, nil
}

// StepContext carries one training step's shared forward results so that
// each method (and Calibre's regularizers) can reuse them without repeating
// the encoder pass.
type StepContext struct {
	RNG      *rand.Rand
	Backbone *Backbone

	View1, View2 *tensor.Tensor // augmented input views (N×inputDim)
	Z1, Z2       *nn.Node       // encoder outputs (N×featDim)
	H1, H2       *nn.Node       // projector outputs (N×projDim)

	// Tape is the tape the step's graph is on: a loss hook borrows what it
	// builds for the step from it (Tensor, Ints, IntRows), until the step's
	// Reset. Arena, the arena behind the tape, lends scratch for the duration
	// of a call (Get … Put), and KMeans is the training client's clustering
	// workspace. All three may be nil and then degrade to the heap.
	Tape   *nn.Tape
	Arena  *tensor.Arena
	KMeans *kmeans.Workspace
}

// NewStepContextOn performs the shared forward passes for a pair of views,
// with the step's graph allocated on tp (see nn.Tape; nil allocates on the
// heap). The whole context is step-scoped: after the caller resets the
// tape, none of its nodes may be touched again.
func NewStepContextOn(tp *nn.Tape, rng *rand.Rand, b *Backbone, view1, view2 *tensor.Tensor) *StepContext {
	ctx := &StepContext{RNG: rng, Backbone: b, Tape: tp}
	ctx.forward(view1, view2)
	return ctx
}

// forward runs the step's shared forward passes on the context's tape.
func (ctx *StepContext) forward(view1, view2 *tensor.Tensor) {
	ctx.View1, ctx.View2 = view1, view2
	ctx.Z1, ctx.Z2 = ctx.Backbone.EncodeOn(ctx.Tape, view1), ctx.Backbone.EncodeOn(ctx.Tape, view2)
	ctx.H1, ctx.H2 = ctx.Backbone.Project(ctx.Z1), ctx.Backbone.Project(ctx.Z2)
}

// Method is a self-supervised objective over a pair of augmented views.
// Implementations may own state (momentum targets, queues, prototypes).
type Method interface {
	// Name identifies the method (e.g. "simclr").
	Name() string
	// Loss builds the scalar SSL loss node for the step.
	Loss(ctx *StepContext) *nn.Node
	// AfterStep updates method-owned state after an optimizer step (EMA
	// targets, queues, group centers). It may be a no-op.
	AfterStep(b *Backbone)
	// ExtraParams returns method-owned learnable parameters that must be
	// trained and federated together with the backbone (e.g. SwAV
	// prototypes). May be nil.
	ExtraParams() []*nn.Param
	// CarriesLocalState reports whether the method owns cross-round state
	// outside ExtraParams — EMA target networks (BYOL), momentum key
	// encoders and key queues (MoCo). Such state is neither federated nor
	// captured by checkpoints, so a cold-started process cannot
	// reconstruct it: methods returning true cannot be bit-identically
	// resumed from a snapshot (core.SSLTrainer surfaces this through
	// fl.Stateful, and resume paths refuse them).
	CarriesLocalState() bool
}

// Factory constructs a method bound to a backbone. Each federated client
// owns one method instance; its state persists across rounds.
type Factory func(rng *rand.Rand, b *Backbone) (Method, error)

// Trainable bundles the backbone with a method's extra learnable
// parameters; this is the module whose flattened parameter vector is
// exchanged with the federated server.
type Trainable struct {
	Backbone *Backbone
	Method   Method

	params []*nn.Param      // cached by Params
	arena  *tensor.Arena    // lazily created; backs the training-step tape
	tape   *nn.Tape         // lazily created over arena; Train's steps run on it
	kmeans kmeans.Workspace // a loss hook's clusterings, reused like the arena's buffers
}

var _ nn.Module = (*Trainable)(nil)

// NewTrainable builds a freshly initialized backbone and binds a method from
// factory to it, drawing both from rng in that order. The backbone is built
// in the trainable's layout; a method's extra parameters, which a Factory
// builds apart, join it here (one copy of the model, at construction).
func NewTrainable(rng *rand.Rand, arch Arch, factory Factory) (*Trainable, error) {
	b := NewBackbone(rng, arch)
	m, err := factory(rng, b)
	if err != nil {
		return nil, err
	}
	t := &Trainable{Backbone: b, Method: m}
	nn.Values(t)
	return t, nil
}

// Arena returns the trainable's buffer arena, creating it on first use. The
// arena persists for the trainable's lifetime (for a federated client: across
// rounds), which is what makes step buffers actually get reused. The arena is
// mutex-guarded and may be shared; Train itself is not safe for concurrent
// use on one Trainable (one parameter set, one step tape, one workspace).
func (t *Trainable) Arena() *tensor.Arena {
	if t.arena == nil {
		t.arena = tensor.NewArena()
	}
	return t.arena
}

// stepTape returns the tape Train's steps run on, over the trainable's
// arena and kept like it: its node slab, sort scratch and index scratch stay
// sized to the client's step from one local update to the next.
func (t *Trainable) stepTape() *nn.Tape {
	if t.tape == nil {
		t.tape = nn.NewTape(t.Arena())
	}
	return t.tape
}

// KMeans returns the trainable's clustering workspace, which persists like
// its arena and, like a tape, serves one training step at a time.
func (t *Trainable) KMeans() *kmeans.Workspace { return &t.kmeans }

// Params returns backbone params followed by method extras, in stable order.
func (t *Trainable) Params() []*nn.Param {
	if t.params == nil {
		t.params = append(append(t.params, t.Backbone.Params()...), t.Method.ExtraParams()...)
	}
	return t.params
}
