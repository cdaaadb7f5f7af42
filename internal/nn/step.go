package nn

import "fmt"

// StepLoop is the local-training step lifecycle every trainer in this
// repository runs — ssl.Train, model.TrainSupervised and
// model.TrainLinearHead differ only in the callbacks they fill in. Run owns
// the order of a step:
//
//	Loss → clear gradients → Backward → AdjustGrads → clip → Opt.Step →
//	AfterStep → read the loss → Tape.Reset
//
// and is the one place that sequences Backward, the optimizer step and the
// tape reset (on the error path too), so a step's graph never outlives the
// step and no caller can get the order wrong. Build the callbacks once per
// training call, not per step: Run itself allocates nothing.
type StepLoop struct {
	// Tape is the allocation tape Loss builds its graph on; Run resets it
	// at the end of every step. Nil trains on the heap.
	Tape *Tape
	// Opt updates the trainable parameters. Its velocity is the local
	// update's: Run releases it on return.
	Opt *SGD
	// Grads is the gradient vector of every parameter Loss can reach,
	// trainable or frozen (see Grads); it is cleared before each Backward.
	Grads []float64
	// ClipNorm bounds the global gradient norm of Opt's parameters; 0
	// disables clipping.
	ClipNorm float64

	// Loss draws the step's batch and builds its scalar loss; an error ends
	// the run. The graph — the returned node included — dies when the step
	// ends: whatever must survive it (a method's key queue, say) is
	// deep-copied in AfterStep.
	Loss func() (*Node, error)
	// AdjustGrads, when non-nil, edits the accumulated gradients in place
	// before clipping (a proximal pull, a control-variate correction).
	AdjustGrads func()
	// AfterStep, when non-nil, runs after the optimizer step while the
	// step's graph is still alive (EMA targets, queues, group centers).
	AfterStep func()
}

// Run performs steps training steps and returns the mean loss per step.
func (l *StepLoop) Run(steps int) (float64, error) {
	if steps < 1 {
		return 0, nil
	}
	defer l.Opt.Release()
	var total float64
	for s := 0; s < steps; s++ {
		loss, err := l.Loss()
		if err == nil {
			clear(l.Grads)
			err = Backward(loss)
		}
		if err != nil {
			l.Tape.Reset()
			return 0, fmt.Errorf("training step %d: %w", s, err)
		}
		if l.AdjustGrads != nil {
			l.AdjustGrads()
		}
		if l.ClipNorm > 0 {
			l.Opt.ClipGradNorm(l.ClipNorm)
		}
		l.Opt.Step()
		if l.AfterStep != nil {
			l.AfterStep()
		}
		total += loss.Value.At(0, 0)
		l.Tape.Reset()
	}
	return total / float64(steps), nil
}
