package calibre

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestExperimentIDs(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 10 { // fig1..fig8, table1, design
		t.Fatalf("ExperimentIDs = %v", ids)
	}
}

func TestSettingNamesSorted(t *testing.T) {
	names := SettingNames()
	if len(names) != 6 {
		t.Fatalf("SettingNames = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}

func TestNewEnvironmentUnknownSetting(t *testing.T) {
	if _, err := NewEnvironment("nope", ScaleSmoke, 1); err == nil {
		t.Fatal("unknown setting should error")
	}
}

func TestPublicAPIFlow(t *testing.T) {
	env, err := NewEnvironment("cifar10-q(2,500)", ScaleSmoke, 42)
	if err != nil {
		t.Fatalf("NewEnvironment: %v", err)
	}
	env.Novel = env.Novel[:1]
	out, err := Run(context.Background(), env, "calibre-simclr")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out.Participants.Summary.N != len(env.Participants) {
		t.Fatalf("participants N = %d", out.Participants.Summary.N)
	}
	if out.Participants.Summary.Mean <= 0 {
		t.Fatalf("mean accuracy = %v, want > 0", out.Participants.Summary.Mean)
	}
	// Facade metric helpers.
	other := Summarize([]float64{0.1, 0.2})
	if Improvement(out.Participants.Summary, other) == 0 && out.Participants.Summary.Mean != other.Mean {
		t.Fatal("Improvement should reflect mean difference")
	}
	_ = VarianceReduction(out.Participants.Summary, other)
}

func TestCalibreVariantThroughFacade(t *testing.T) {
	env, err := NewEnvironment("cifar10-q(2,500)", ScaleSmoke, 7)
	if err != nil {
		t.Fatalf("NewEnvironment: %v", err)
	}
	env.Novel = nil
	m, err := NewCalibreVariant(env, "simclr", true, false)
	if err != nil {
		t.Fatalf("NewCalibreVariant: %v", err)
	}
	if !strings.Contains(m.Name, "[ln]") {
		t.Fatalf("variant name = %s", m.Name)
	}
	out, err := RunCustom(context.Background(), env, m)
	if err != nil {
		t.Fatalf("RunCustom: %v", err)
	}
	if out.Participants.Summary.N == 0 {
		t.Fatal("no results")
	}
}

func TestMethodAndSSLNames(t *testing.T) {
	methods := MethodNames()
	if len(methods) < 20 {
		t.Fatalf("expected ≥20 methods, got %d", len(methods))
	}
	ssls := SSLMethodNames()
	if len(ssls) != 7 { // the paper's six + the VICReg extension
		t.Fatalf("SSL methods = %v", ssls)
	}
}

func TestSyntheticDatasetFacade(t *testing.T) {
	ds, err := NewSyntheticDataset(CIFAR10Spec(), 3, 5)
	if err != nil {
		t.Fatalf("NewSyntheticDataset: %v", err)
	}
	if ds.Len() != 50 {
		t.Fatalf("Len = %d", ds.Len())
	}
	if CIFAR100Spec().NumClasses != 100 || STL10Spec().NumClasses != 10 {
		t.Fatal("spec class counts")
	}
}

func TestNetworkedFederationFacade(t *testing.T) {
	env, err := NewEnvironment("cifar10-q(2,500)", ScaleSmoke, 11)
	if err != nil {
		t.Fatalf("NewEnvironment: %v", err)
	}
	clients := env.Participants[:2]
	method, err := BuildMethod(env, "fedavg")
	if err != nil {
		t.Fatalf("BuildMethod: %v", err)
	}
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: 2, Rounds: 1, ClientsPerRound: 2, Seed: 1,
		Aggregator: method.Aggregator, InitGlobal: method.InitGlobal,
		IOTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := RunClient(ctx, ClientConfig{
				Addr: srv.Addr().String(), ClientID: id, Data: clients[id],
				Trainer: method.Trainer, Personalizer: method.Personalizer,
				Seed: 1, IOTimeout: 30 * time.Second,
			}); err != nil {
				t.Errorf("client %d: %v", id, err)
			}
		}(i)
	}
	res, err := srv.Run(ctx)
	wg.Wait()
	if err != nil {
		t.Fatalf("server Run: %v", err)
	}
	if len(res.Accuracies) != 2 {
		t.Fatalf("accuracies = %v", res.Accuracies)
	}
}

func TestSweepFacade(t *testing.T) {
	grid := &SweepGrid{
		Name:     "facade",
		Methods:  []string{"fedavg", "fedavg-ft"},
		Settings: []string{"cifar10-q(2,500)"},
		Seeds:    []int64{1},
		Baseline: "fedavg-ft",
	}
	res, err := RunSweep(context.Background(), grid, SweepConfig{Workers: 2})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("expected 2 cells, got %d", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Status != "ok" || c.Participants.N == 0 {
			t.Fatalf("cell outcome: %+v", c)
		}
	}
	rep := NewSweepReport(res)
	var b strings.Builder
	if err := rep.WriteMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "# Sweep report: facade") {
		t.Fatalf("report not rendered:\n%s", b.String())
	}
	if _, err := LoadSweepGrid("/nonexistent/grid.json"); err == nil {
		t.Fatal("missing grid file accepted")
	}
}

func TestMetricsFacade(t *testing.T) {
	reg := NewMetricsRegistry()
	reg.ObserveRound(MetricsRoundSample{
		Runtime: "sim", Round: 0, Participants: 3, Responders: 3,
		UplinkWireBytes: 64,
	})
	srv, addr, err := ServeMetrics("127.0.0.1:0", reg)
	if err != nil {
		t.Fatalf("ServeMetrics: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got := snap.Counters[MetricRounds]; got != 1 {
		t.Fatalf("rounds_total = %d, want 1", got)
	}
	if snap.Counters[MetricUplinkWireBytes] != 64 {
		t.Fatalf("uplink counters = %v", snap.Counters)
	}
}
