package flnet

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"calibre/internal/baselines"
	"calibre/internal/data"
	"calibre/internal/fl"
	"calibre/internal/param"
	"calibre/internal/partition"
	"calibre/internal/ssl"
)

type addOneTrainer struct{}

func (addOneTrainer) Train(ctx context.Context, rng *rand.Rand, c *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	params := make([]float64, len(global))
	for i, v := range global {
		params[i] = v + 1
	}
	return &fl.Update{ClientID: c.ID, Params: params, NumSamples: c.Train.Len()}, nil
}

// driftTrainer nudges every element by a client- and round-dependent
// amount, so consecutive globals differ everywhere, as after SGD.
type driftTrainer struct{}

func (driftTrainer) Train(ctx context.Context, rng *rand.Rand, c *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	params := global.Clone()
	for i := range params {
		params[i] += 1e-4 * float64(c.ID+1) * float64(round+i%3+1)
	}
	return &fl.Update{ClientID: c.ID, Params: params, NumSamples: c.Train.Len()}, nil
}

// gatedTrainer blocks each local update until release is closed, letting
// tests hold a federation mid-round.
type gatedTrainer struct{ release chan struct{} }

func (g gatedTrainer) Train(ctx context.Context, rng *rand.Rand, c *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return addOneTrainer{}.Train(ctx, rng, c, global, round)
}

type idPersonalizer struct{}

func (idPersonalizer) Personalize(ctx context.Context, rng *rand.Rand, c *partition.Client, global param.Vector) (float64, error) {
	return float64(c.ID) / 10, nil
}

func netClients(t *testing.T, n int) []*partition.Client {
	t.Helper()
	spec := data.CIFAR10Spec()
	spec.Dim = 16
	g, err := data.NewGenerator(spec, 1)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	rng := rand.New(rand.NewSource(2))
	ds := g.GenerateLabeled(rng, 10*n)
	parts, err := partition.IID(rng, ds, n, 20)
	if err != nil {
		t.Fatalf("IID: %v", err)
	}
	return partition.BuildClients(rng, ds, parts, nil)
}

func TestServerConfigValidation(t *testing.T) {
	good := ServerConfig{
		Addr: "127.0.0.1:0", NumClients: 1, Rounds: 1, ClientsPerRound: 1,
		Aggregator: fl.WeightedAverage{},
		InitGlobal: func(rng *rand.Rand) (param.Vector, error) { return []float64{0}, nil },
	}
	if _, err := NewServer(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for _, mutate := range []func(*ServerConfig){
		func(c *ServerConfig) { c.NumClients = 0 },
		func(c *ServerConfig) { c.Rounds = 0 },
		func(c *ServerConfig) { c.ClientsPerRound = 0 },
		func(c *ServerConfig) { c.Aggregator = nil },
		func(c *ServerConfig) { c.InitGlobal = nil },
	} {
		bad := good
		mutate(&bad)
		if _, err := NewServer(bad); err == nil {
			t.Fatal("invalid config accepted")
		}
	}
}

func TestClientConfigValidation(t *testing.T) {
	clients := netClients(t, 1)
	good := ClientConfig{Addr: "127.0.0.1:1", ClientID: 0, Data: clients[0], Trainer: addOneTrainer{}, Personalizer: idPersonalizer{}}
	for _, mutate := range []func(*ClientConfig){
		func(c *ClientConfig) { c.Addr = "" },
		func(c *ClientConfig) { c.Data = nil },
		func(c *ClientConfig) { c.Trainer = nil },
		func(c *ClientConfig) { c.Personalizer = nil },
	} {
		bad := good
		mutate(&bad)
		if err := RunClient(context.Background(), bad); err == nil {
			t.Fatal("invalid client config accepted")
		}
	}
}

// runFederation spins up a server and n client goroutines on localhost and
// returns the server result.
func runFederation(t *testing.T, n, rounds, perRound int, trainer fl.Trainer, personalizer fl.Personalizer) *Result {
	t.Helper()
	clients := netClients(t, n)
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: n, Rounds: rounds, ClientsPerRound: perRound, Seed: 7,
		Aggregator: fl.WeightedAverage{},
		InitGlobal: func(rng *rand.Rand) (param.Vector, error) { return make([]float64, 4), nil },
		IOTimeout:  20 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			errs[id] = RunClient(ctx, ClientConfig{
				Addr:         srv.Addr().String(),
				ClientID:     id,
				Data:         clients[id],
				Trainer:      trainer,
				Personalizer: personalizer,
				Seed:         7,
				IOTimeout:    20 * time.Second,
			})
		}(i)
	}
	res, err := srv.Run(ctx)
	wg.Wait()
	if err != nil {
		t.Fatalf("server Run: %v", err)
	}
	for id, cerr := range errs {
		if cerr != nil {
			t.Fatalf("client %d: %v", id, cerr)
		}
	}
	return res
}

func TestFederationOverTCP(t *testing.T) {
	res := runFederation(t, 4, 3, 2, addOneTrainer{}, idPersonalizer{})
	// add-one trainer + averaging: global = rounds.
	for _, v := range res.Global {
		if v != 3 {
			t.Fatalf("global = %v, want all 3", res.Global)
		}
	}
	if len(res.History) != 3 {
		t.Fatalf("history = %d", len(res.History))
	}
	if len(res.Accuracies) != 4 {
		t.Fatalf("accuracies = %v", res.Accuracies)
	}
	for id, acc := range res.Accuracies {
		if acc != float64(id)/10 {
			t.Fatalf("acc[%d] = %v", id, acc)
		}
	}
}

func TestFederationWithRealMethodOverTCP(t *testing.T) {
	// A real FL method (FedAvg on the supervised model) over the wire.
	n := 3
	clients := netClients(t, n)
	arch := ssl.Arch{InputDim: 16, HiddenDim: 24, FeatDim: 12, ProjDim: 8}
	cfg := baselines.DefaultConfig(arch, 10)
	cfg.Train.Epochs = 1
	cfg.Train.BatchSize = 16
	cfg.Head.Epochs = 2
	method := baselines.NewFedAvg(cfg)

	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: n, Rounds: 2, ClientsPerRound: 2, Seed: 3,
		Aggregator: method.Aggregator,
		InitGlobal: method.InitGlobal,
		IOTimeout:  30 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			errs[id] = RunClient(ctx, ClientConfig{
				Addr:         srv.Addr().String(),
				ClientID:     id,
				Data:         clients[id],
				Trainer:      method.Trainer,
				Personalizer: method.Personalizer,
				Seed:         3,
				IOTimeout:    30 * time.Second,
			})
		}(i)
	}
	res, err := srv.Run(ctx)
	wg.Wait()
	if err != nil {
		t.Fatalf("server Run: %v", err)
	}
	for id, cerr := range errs {
		if cerr != nil {
			t.Fatalf("client %d: %v", id, cerr)
		}
	}
	for id, acc := range res.Accuracies {
		if acc < 0 || acc > 1 {
			t.Fatalf("acc[%d] = %v", id, acc)
		}
	}
}

// TestDuplicateClientIDRejected pins the async-server semantics: a second
// join with an already-taken ID is rejected on its own connection with an
// error message, while the federation carries on undisturbed with the
// original holder of the ID.
func TestDuplicateClientIDRejected(t *testing.T) {
	clients := netClients(t, 2)
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: 1, Rounds: 2, ClientsPerRound: 1, Seed: 1,
		Aggregator: fl.WeightedAverage{},
		InitGlobal: func(rng *rand.Rand) (param.Vector, error) { return []float64{0}, nil },
		IOTimeout:  10 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	release := make(chan struct{})
	mk := func(id int, tr fl.Trainer) error {
		return RunClient(ctx, ClientConfig{
			Addr: srv.Addr().String(), ClientID: id, Data: clients[0],
			Trainer: tr, Personalizer: idPersonalizer{}, IOTimeout: 10 * time.Second,
		})
	}
	type outcome struct {
		res *Result
		err error
	}
	srvCh := make(chan outcome, 1)
	firstErr := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		close(started)
		res, err := srv.Run(ctx)
		srvCh <- outcome{res, err}
	}()
	<-started
	// The original client's first local update blocks until released, so
	// the federation is provably mid-round while the duplicate collides.
	go func() { firstErr <- mk(5, gatedTrainer{release}) }()
	waitUntil(t, 5*time.Second, func() bool { return len(srv.Joined()) == 1 })
	dupErr := mk(5, addOneTrainer{})
	if dupErr == nil || !strings.Contains(dupErr.Error(), "duplicate") {
		t.Fatalf("duplicate joiner should be rejected with an error, got %v", dupErr)
	}
	close(release)
	sr := <-srvCh
	if sr.err != nil {
		t.Fatalf("server Run: %v", sr.err)
	}
	if err := <-firstErr; err != nil {
		t.Fatalf("original client: %v", err)
	}
	if len(sr.res.Accuracies) != 1 {
		t.Fatalf("accuracies = %v, want the original client only", sr.res.Accuracies)
	}
}

// waitUntil polls cond until it holds or the timeout elapses.
func waitUntil(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestMsgTypeString(t *testing.T) {
	for m := MsgJoin; m <= MsgError; m++ {
		if s := m.String(); s == "" || strings.HasPrefix(s, "msgtype(") {
			t.Fatalf("missing String for %d", int(m))
		}
	}
	if !strings.HasPrefix(MsgType(99).String(), "msgtype(") {
		t.Fatal("unknown type should render numerically")
	}
}

// wrongSizeTrainer emits a payload that cannot belong to this federation.
type wrongSizeTrainer struct{}

func (wrongSizeTrainer) Train(ctx context.Context, rng *rand.Rand, c *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	return &fl.Update{ClientID: c.ID, Params: make(param.Vector, len(global)+3), NumSamples: 1}, nil
}

// TestServerRejectsWrongSizeUpdate pins the ingress contract: a client
// shipping a wrong-length payload is evicted while the round aggregates
// the remaining updates — the round is degraded, never panicked.
func TestServerRejectsWrongSizeUpdate(t *testing.T) {
	n := 3
	clients := netClients(t, n)
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: n, Rounds: 1, ClientsPerRound: n, Seed: 7,
		Quorum:        1,
		RoundDeadline: 30 * time.Second,
		Aggregator:    fl.WeightedAverage{},
		InitGlobal: func(rng *rand.Rand) (param.Vector, error) {
			return make(param.Vector, 8), nil
		},
		IOTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var trainer fl.Trainer = addOneTrainer{}
			if id == 1 {
				trainer = wrongSizeTrainer{}
			}
			// The misbehaving client is evicted server-side, so its RunClient
			// exits with a transport error; the others shut down cleanly.
			_ = RunClient(ctx, ClientConfig{
				Addr: srv.Addr().String(), ClientID: id, Data: clients[id],
				Trainer: trainer, Personalizer: idPersonalizer{}, Seed: 7,
			})
		}(i)
	}
	res, err := srv.Run(ctx)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	wg.Wait()
	h := res.History[0]
	if len(h.Stragglers) != 1 || h.Stragglers[0] != 1 {
		t.Fatalf("round 0 stragglers = %v, want [1]", h.Stragglers)
	}
	if _, ok := res.Accuracies[1]; ok {
		t.Fatal("rejected client still personalized")
	}
	if len(res.Accuracies) != n-1 {
		t.Fatalf("got %d accuracies, want %d", len(res.Accuracies), n-1)
	}
}
