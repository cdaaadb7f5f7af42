package model

import (
	"fmt"
	"math/rand"

	"calibre/internal/data"
	"calibre/internal/nn"
	"calibre/internal/tensor"
)

// HeadConfig controls linear-probe training in the personalization stage.
// The paper's setting: 10 epochs of SGD with learning rate 0.05, batch 32.
type HeadConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Momentum  float64
}

// DefaultHeadConfig returns the paper's personalization hyperparameters.
func DefaultHeadConfig() HeadConfig {
	return HeadConfig{Epochs: 10, BatchSize: 32, LR: 0.05, Momentum: 0}
}

// TrainLinearHead fits a linear classifier on frozen features. feats is
// (n×d), labels are class indices. This is the personalized model ϕ of the
// paper: deliberately lightweight.
func TrainLinearHead(rng *rand.Rand, feats *tensor.Tensor, labels []int, numClasses int, cfg HeadConfig) (*nn.Linear, error) {
	n := feats.Rows()
	if n == 0 {
		return nil, fmt.Errorf("model: no samples to train head on")
	}
	if len(labels) != n {
		return nil, fmt.Errorf("model: %d labels for %d samples", len(labels), n)
	}
	if cfg.Epochs < 1 || cfg.BatchSize < 1 {
		return nil, fmt.Errorf("model: bad head config %+v", cfg)
	}
	head := nn.NewLinear(rng, feats.Cols(), numClasses, "probe")
	tape := nn.NewTape(tensor.NewArena())
	stepsPerEpoch := (n + cfg.BatchSize - 1) / cfg.BatchSize
	dim, row := feats.Cols(), feats.Row
	// Unlike data.Batcher, the cursor keeps an epoch's 1-row tail.
	perm := rng.Perm(n)
	cur := 0
	loop := nn.StepLoop{
		Tape:  tape,
		Opt:   nn.NewSGD(head, cfg.LR, cfg.Momentum, 0),
		Grads: nn.Grads(head),
		Loss: func() (*nn.Node, error) {
			if cur >= n {
				perm = rng.Perm(n)
				cur = 0
			}
			idx := perm[cur:min(cur+cfg.BatchSize, n)]
			cur += len(idx)
			x, y := gatherBatch(tape, dim, row, labels, idx)
			return nn.CrossEntropy(head.Forward(nn.InputOn(tape, x)), y), nil
		},
	}
	if _, err := loop.Run(cfg.Epochs * stepsPerEpoch); err != nil {
		return nil, fmt.Errorf("model: head: %w", err)
	}
	return head, nil
}

// HeadAccuracy evaluates a linear head on frozen features.
func HeadAccuracy(head *nn.Linear, feats *tensor.Tensor, labels []int) float64 {
	if feats.Rows() == 0 {
		return 0
	}
	return nn.Accuracy(head.Forward(nn.Input(feats)).Value, labels)
}

// FeatureFn maps a raw batch to representation space; personalizers use it
// to abstract over how the encoder is reconstructed from the global vector.
type FeatureFn func(x *tensor.Tensor) *tensor.Tensor

// LinearProbeAccuracy runs the full personalization stage for one client:
// extract features for the local train and test sets with features, train a
// linear head on the train features, and return the test accuracy.
func LinearProbeAccuracy(rng *rand.Rand, features FeatureFn, train, test *data.Dataset, numClasses int, cfg HeadConfig) (float64, error) {
	if train.Len() == 0 || test.Len() == 0 {
		return 0, fmt.Errorf("model: client needs both train (%d) and test (%d) samples", train.Len(), test.Len())
	}
	trainFeats := features(data.Batch(train.X))
	head, err := TrainLinearHead(rng, trainFeats, train.Y, numClasses, cfg)
	if err != nil {
		return 0, err
	}
	testFeats := features(data.Batch(test.X))
	return HeadAccuracy(head, testFeats, test.Y), nil
}
