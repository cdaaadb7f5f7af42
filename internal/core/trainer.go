package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"calibre/internal/fl"
	"calibre/internal/model"
	"calibre/internal/nn"
	"calibre/internal/param"
	"calibre/internal/partition"
	"calibre/internal/ssl"
)

// SSLTrainer is the federated local trainer shared by plain pFL-SSL and
// Calibre: each local update borrows a Trainable (backbone + SSL method),
// binds it to a borrowed copy of the global — and a Local flavour's state
// (BYOL's target, MoCo's key encoder and queue) to the client's row of the
// method's client table —, runs the local SSL loop (optionally with
// Calibre's regularizer hook), and reports its updated parameters plus —
// for Calibre — its prototype divergence rate. New and NewPFLSSL build it.
type SSLTrainer struct {
	Arch    ssl.Arch
	Factory ssl.Factory
	Cfg     ssl.TrainConfig

	// Reg, when non-nil, applies Calibre's prototype regularizers, and
	// updates report their divergence rate (for fl.DivergenceWeighted
	// aggregation) over Reg.Opts.NumClusters clusters.
	Reg *Regularizer

	// clients holds each client's LocalState values, for a Local flavour
	// (the method's fl.ClientTable); nil for one without local state.
	clients *fl.ClientTable
	spares  nn.Spares[*ssl.Trainable]
}

var _ fl.Trainer = (*SSLTrainer)(nil)

// newSSLTrainer builds the trainer for factory's flavour with the first of
// its spare trainables, which says whether the flavour keeps local state
// and so whether the method needs a client table.
func newSSLTrainer(arch ssl.Arch, factory ssl.Factory) (*SSLTrainer, error) {
	t := &SSLTrainer{Arch: arch, Factory: factory}
	tr, err := t.spare()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if tr.LocalState() != nil {
		t.clients = new(fl.ClientTable)
	}
	t.spares.Give(tr)
	return t, nil
}

// spare builds a trainable for the spares: its values are never read, so
// any seed does.
func (t *SSLTrainer) spare() (*ssl.Trainable, error) {
	return ssl.NewTrainable(rand.New(rand.NewSource(0)), t.Arch, t.Factory)
}

// Train implements fl.Trainer.
func (t *SSLTrainer) Train(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	updates.acquire()
	defer updates.release()
	// A first contact's state is the LocalState of a trainable built from
	// the row's draw, as the client's own trainable's would have been.
	var row param.Vector
	if t.clients != nil {
		var err error
		row, _, err = t.clients.Row(rng, client.ID, func(initRNG *rand.Rand) (param.Vector, error) {
			tr, err := ssl.NewTrainable(initRNG, t.Arch, t.Factory)
			if err != nil {
				return nil, err
			}
			return nn.Flatten(tr.LocalState()), nil
		})
		if err != nil {
			return nil, fmt.Errorf("core: method init for client %d: %w", client.ID, err)
		}
	} else {
		rng.Int63() // the row's draw: a flavour without local state has none to build
	}
	v := param.Borrow(len(global))
	copy(v, global)
	st, err := t.spares.Take(v, t.spare)
	if err != nil {
		param.GiveBack(v)
		return nil, fmt.Errorf("core: load global into client %d: %w", client.ID, err)
	}
	switch {
	case row != nil:
		err = st.BindLocal(row)
	case st.LocalState() != nil:
		err = fmt.Errorf("the flavour keeps local state and the trainer has no client table (build it with New or NewPFLSSL)")
	}
	if err != nil {
		t.spares.Give(st)
		param.GiveBack(v)
		return nil, fmt.Errorf("core: client %d: %w", client.ID, err)
	}
	update, err := t.train(rng, st, client, round)
	if row != nil {
		st.BindLocal(nil)
	}
	t.spares.Give(st)
	if err != nil {
		param.GiveBack(v)
		return nil, err
	}
	update.Params, update.Lent = v, true // given back when the round closes (fl.Update)
	return update, nil
}

// updates holds a process to GOMAXPROCS local updates at once. Clients that
// share a process (flnet clients dialed from one process, a simulator with
// more workers than CPUs) would otherwise train as many at once as the server
// samples: the extra ones only time-slice the same CPUs, and each holds a
// spare trainable, an update vector and a step tape, so the process would
// keep as many of each as the scheduler happened to run at once.
var updates = newUpdateSlots()

type updateSlots struct {
	mu   sync.Mutex
	free sync.Cond
	busy int
}

func newUpdateSlots() *updateSlots {
	s := &updateSlots{}
	s.free.L = &s.mu
	return s
}

// acquire waits until fewer than GOMAXPROCS local updates run, then counts
// the caller's. A local update is compute only, so every wait ends.
func (s *updateSlots) acquire() {
	s.mu.Lock()
	for s.busy >= runtime.GOMAXPROCS(0) {
		s.free.Wait()
	}
	s.busy++
	s.mu.Unlock()
}

func (s *updateSlots) release() {
	s.mu.Lock()
	s.busy--
	s.mu.Unlock()
	s.free.Signal()
}

// train is the local update on a bound trainable. It trains on the
// client's labeled rows and its unlabeled pool (STL-10's advantage for SSL
// methods).
func (t *SSLTrainer) train(rng *rand.Rand, st *ssl.Trainable, client *partition.Client, round int) (*fl.Update, error) {
	rows := client.SSLRows()
	var hook ssl.LossHook
	if t.Reg != nil && round >= t.Reg.Opts.WarmupRounds {
		hook = t.Reg.Apply
	}
	loss, err := ssl.Train(rng, st, rows, t.Cfg, hook)
	if err != nil {
		return nil, fmt.Errorf("core: local SSL update for client %d: %w", client.ID, err)
	}
	update := &fl.Update{ClientID: client.ID, NumSamples: len(rows), TrainLoss: loss}
	if t.Reg != nil {
		// The encodings are step values: on the tape, given back with it.
		tape := nn.BorrowTape()
		x := tape.Tensor(len(client.Train.X), st.Backbone.Arch.InputDim)
		for i, r := range client.Train.X {
			x.SetRow(i, r)
		}
		div, err := divergence(tape.Arena(), st.KMeans(), rng, st.Backbone.EncodeOn(tape, x).Value, t.Reg.Opts.NumClusters)
		tape.Release()
		if err != nil {
			return nil, fmt.Errorf("core: divergence for client %d: %w", client.ID, err)
		}
		update.Divergence = div
	}
	return update, nil
}

// InitGlobal builds the initial flattened global vector for this trainer's
// architecture + method (every client shares the layout).
func (t *SSLTrainer) InitGlobal(rng *rand.Rand) (param.Vector, error) {
	st, err := ssl.NewTrainable(rng, t.Arch, t.Factory)
	if err != nil {
		return nil, fmt.Errorf("core: init global: %w", err)
	}
	return nn.Flatten(st), nil
}

// LinearProbe is the personalization stage shared by all two-stage SSL
// methods: reconstruct the encoder from the global vector, extract features
// for the client's local train/test sets, train a linear head (10 epochs of
// SGD at 0.05 in the paper) and report the local test accuracy.
type LinearProbe struct {
	Arch       ssl.Arch
	Factory    ssl.Factory
	NumClasses int
	Head       model.HeadConfig
}

var _ fl.Personalizer = (*LinearProbe)(nil)

// Personalize implements fl.Personalizer.
func (p *LinearProbe) Personalize(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	st, err := ssl.NewTrainable(rng, p.Arch, p.Factory)
	if err != nil {
		return 0, fmt.Errorf("core: probe init: %w", err)
	}
	if err := nn.Unflatten(st, global); err != nil {
		return 0, fmt.Errorf("core: probe load global: %w", err)
	}
	return model.LinearProbeAccuracy(rng, st.Backbone.EncodeValue, client.Train, client.Test, p.NumClasses, p.Head)
}

// Config assembles a complete Calibre or pFL-SSL method.
type Config struct {
	Arch       ssl.Arch
	NumClasses int
	SSLName    string // one of ssl.MethodNames()
	Train      ssl.TrainConfig
	Head       model.HeadConfig
	Opts       Options
}

// DefaultConfig returns a ready-to-run configuration for the given
// architecture, SSL flavor and class count.
func DefaultConfig(arch ssl.Arch, sslName string, numClasses int) Config {
	return Config{
		Arch:       arch,
		NumClasses: numClasses,
		SSLName:    sslName,
		Train:      ssl.DefaultTrainConfig(),
		Head:       model.DefaultHeadConfig(),
		Opts:       DefaultOptions(),
	}
}

// New builds the full Calibre method: SSL training with prototype
// regularizers, divergence-weighted aggregation, linear-probe
// personalization.
func New(cfg Config) (*fl.Method, error) {
	factory, err := ssl.Lookup(cfg.SSLName)
	if err != nil {
		return nil, err
	}
	reg, err := NewRegularizer(cfg.Opts)
	if err != nil {
		return nil, err
	}
	trainer, err := newSSLTrainer(cfg.Arch, factory)
	if err != nil {
		return nil, err
	}
	trainer.Cfg, trainer.Reg = cfg.Train, reg
	return &fl.Method{
		Name:       fmt.Sprintf("calibre-%s", cfg.SSLName),
		Trainer:    trainer,
		Aggregator: &fl.DivergenceWeighted{Temperature: cfg.Opts.AggTemperature},
		Personalizer: &LinearProbe{
			Arch:       cfg.Arch,
			Factory:    factory,
			NumClasses: cfg.NumClasses,
			Head:       cfg.Head,
		},
		InitGlobal: trainer.InitGlobal,
		Clients:    trainer.clients,
	}, nil
}

// NewPFLSSL builds the uncalibrated pFL-SSL baseline (paper §III-B): the
// same two-stage pipeline with plain SSL training and FedAvg aggregation.
func NewPFLSSL(cfg Config) (*fl.Method, error) {
	factory, err := ssl.Lookup(cfg.SSLName)
	if err != nil {
		return nil, err
	}
	trainer, err := newSSLTrainer(cfg.Arch, factory)
	if err != nil {
		return nil, err
	}
	trainer.Cfg = cfg.Train
	return &fl.Method{
		Name:       fmt.Sprintf("pfl-%s", cfg.SSLName),
		Trainer:    trainer,
		Aggregator: fl.WeightedAverage{},
		Personalizer: &LinearProbe{
			Arch:       cfg.Arch,
			Factory:    factory,
			NumClasses: cfg.NumClasses,
			Head:       cfg.Head,
		},
		InitGlobal: trainer.InitGlobal,
		Clients:    trainer.clients,
	}, nil
}
