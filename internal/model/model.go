// Package model provides the supervised model used by the FL baselines
// (encoder + linear classification head, mirroring the paper's "ResNet-18
// with its fully-connected layers replaced by a linear classifier") and its
// two local trainers, both loss builders over nn.StepLoop: supervised
// training of the model, and the linear-probe head training that implements
// the paper's personalization stage.
package model

import (
	"fmt"
	"math/rand"

	"calibre/internal/data"
	"calibre/internal/nn"
	"calibre/internal/ssl"
	"calibre/internal/tensor"
)

// SupModel is a supervised classifier: the same encoder architecture as the
// SSL backbone plus a linear head. The paper calls these Encoder and Head.
type SupModel struct {
	Arch       ssl.Arch
	NumClasses int
	Encoder    *nn.Sequential
	Head       *nn.Linear

	arena *tensor.Arena // lazily created; backs TrainSupervised's step tapes
}

var _ nn.Module = (*SupModel)(nil)

// NewSupModel builds a supervised model with fresh weights.
func NewSupModel(rng *rand.Rand, arch ssl.Arch, numClasses int) *SupModel {
	return &SupModel{
		Arch:       arch,
		NumClasses: numClasses,
		Encoder:    nn.MLP(rng, "enc", arch.InputDim, arch.HiddenDim, arch.FeatDim),
		Head:       nn.NewLinear(rng, arch.FeatDim, numClasses, "head"),
	}
}

// Params returns encoder parameters followed by head parameters; the
// boundary index is EncoderParamCount.
func (m *SupModel) Params() []*nn.Param {
	return append(m.Encoder.Params(), m.Head.Params()...)
}

// EncoderParamCount returns the number of scalar parameters in the encoder,
// i.e. the boundary between encoder and head in the flattened vector.
func (m *SupModel) EncoderParamCount() int { return nn.ParamCount(m.Encoder) }

// EncoderMask returns a mask over the flattened vector marking encoder
// positions true.
func (m *SupModel) EncoderMask() []bool {
	total := nn.ParamCount(m)
	enc := m.EncoderParamCount()
	mask := make([]bool, total)
	for i := 0; i < enc; i++ {
		mask[i] = true
	}
	return mask
}

// HeadMask returns a mask over the flattened vector marking head positions
// true.
func (m *SupModel) HeadMask() []bool {
	mask := m.EncoderMask()
	for i := range mask {
		mask[i] = !mask[i]
	}
	return mask
}

// Forward computes class logits for a constant input batch.
func (m *SupModel) Forward(x *tensor.Tensor) *nn.Node { return m.ForwardOn(nil, x) }

// ForwardOn is Forward with the graph's buffers drawn from tp's arena (a nil
// tape allocates on the heap). The logits — and everything derived from
// them — become invalid at the tape's next Reset.
func (m *SupModel) ForwardOn(tp *nn.Tape, x *tensor.Tensor) *nn.Node {
	return m.Head.Forward(m.Encoder.Forward(nn.InputOn(tp, x)))
}

// Accuracy evaluates classification accuracy on a dataset.
func (m *SupModel) Accuracy(ds *data.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	logits := m.Forward(data.Batch(ds.X)).Value
	return nn.Accuracy(logits, ds.Y)
}

// EncodeValue runs the encoder on a raw batch, returning the feature
// matrix. It satisfies FeatureFn for linear-probe personalization.
func (m *SupModel) EncodeValue(x *tensor.Tensor) *tensor.Tensor {
	return m.Encoder.Forward(nn.Input(x)).Value
}

// paramSubset adapts a parameter slice to nn.Module so optimizers can be
// scoped to part of a model (frozen-encoder / frozen-head training).
type paramSubset struct{ params []*nn.Param }

func (p paramSubset) Params() []*nn.Param { return p.params }

// SupTrainConfig controls supervised local training.
type SupTrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Momentum  float64

	FreezeEncoder bool
	FreezeHead    bool

	// ClipNorm bounds the global gradient norm per step; 0 disables
	// clipping. Small-batch cross-entropy on freshly initialized networks
	// occasionally produces spiky gradients; clipping keeps runs stable.
	ClipNorm float64

	// ProxMu, when positive, adds FedProx/Ditto-style proximal pull
	// (mu/2)·||w - ProxTarget||² toward ProxTarget (a flattened vector over
	// all model params).
	ProxMu     float64
	ProxTarget []float64

	// GradCorrection, when non-nil, is added to the gradient each step
	// (SCAFFOLD's c - c_i term), in Flatten layout over all model params.
	GradCorrection []float64
}

// DefaultSupTrainConfig mirrors the paper's local update: 3 epochs, batch
// 32, SGD.
func DefaultSupTrainConfig() SupTrainConfig {
	return SupTrainConfig{Epochs: 3, BatchSize: 32, LR: 0.05, Momentum: 0.9, ClipNorm: 5}
}

// TrainSupervised runs local supervised training of m on ds and returns the
// mean cross-entropy per step. Step buffers come from an arena that lives as
// long as m does, so a client model trained round after round reuses them.
func TrainSupervised(rng *rand.Rand, m *SupModel, ds *data.Dataset, cfg SupTrainConfig) (float64, error) {
	if ds.Len() == 0 {
		return 0, nil
	}
	if cfg.Epochs < 1 || cfg.BatchSize < 1 {
		return 0, fmt.Errorf("model: bad train config %+v", cfg)
	}
	params := m.Params()
	prox := cfg.ProxTarget
	if cfg.ProxMu <= 0 {
		prox = nil
	}
	want := nn.ParamCount(m)
	if prox != nil && len(prox) != want {
		return 0, fmt.Errorf("model: ProxTarget has %d values, the model %d parameters", len(prox), want)
	}
	if cfg.GradCorrection != nil && len(cfg.GradCorrection) != want {
		return 0, fmt.Errorf("model: GradCorrection has %d values, the model %d parameters", len(cfg.GradCorrection), want)
	}
	var trainable []*nn.Param
	if !cfg.FreezeEncoder {
		trainable = append(trainable, m.Encoder.Params()...)
	}
	if !cfg.FreezeHead {
		trainable = append(trainable, m.Head.Params()...)
	}
	if len(trainable) == 0 {
		return 0, fmt.Errorf("model: nothing to train (both parts frozen)")
	}
	if m.arena == nil {
		m.arena = tensor.NewArena()
	}
	tape := nn.NewTape(m.arena)
	stepsPerEpoch := (ds.Len() + cfg.BatchSize - 1) / cfg.BatchSize
	batcher := data.NewBatcher(rng, ds.Len(), cfg.BatchSize)
	loop := nn.StepLoop{
		Tape:     tape,
		Opt:      nn.NewSGD(paramSubset{trainable}, cfg.LR, cfg.Momentum, 0),
		Params:   params,
		ClipNorm: cfg.ClipNorm,
		Loss: func() (*nn.Node, error) {
			idx, ok := batcher.Next()
			if !ok {
				idx = []int{0} // a one-sample dataset trains full-batch
			}
			return nn.CrossEntropy(m.ForwardOn(tape, data.Batch(ds.Rows(idx))), ds.Labels(idx)), nil
		},
	}
	if prox != nil || cfg.GradCorrection != nil {
		// grad += mu·(w − target), then grad += correction, in place.
		loop.AdjustGrads = func() {
			off := 0
			for _, p := range params {
				g, w := p.Grad.Data(), p.Value.Data()
				if prox != nil {
					for i, t := range prox[off : off+len(g)] {
						g[i] += cfg.ProxMu * (w[i] - t)
					}
				}
				if cfg.GradCorrection != nil {
					for i, c := range cfg.GradCorrection[off : off+len(g)] {
						g[i] += c
					}
				}
				off += len(g)
			}
		}
	}
	loss, err := loop.Run(cfg.Epochs * stepsPerEpoch)
	if err != nil {
		return 0, fmt.Errorf("model: %w", err)
	}
	return loss, nil
}
