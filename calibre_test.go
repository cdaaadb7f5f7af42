package calibre

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"calibre/internal/fl"
	"calibre/internal/obs"
)

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
	if got := Summarize(out.Participants.Accs); got != out.Participants.Summary {
		t.Fatalf("Summarize(accs) = %+v, want the outcome's %+v", got, out.Participants.Summary)
	}
}

func TestCalibreVariantThroughFacade(t *testing.T) {
	env, err := NewEnvironment("cifar10-q(2,500)", ScaleSmoke, 7)
	if err != nil {
		t.Fatalf("NewEnvironment: %v", err)
	}
	env.Novel = nil
	out, err := Run(context.Background(), env, "calibre-simclr[ln]")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out.Method != "calibre-simclr[ln]" || out.Participants.Method != out.Method {
		t.Fatalf("outcome names %q / %q", out.Method, out.Participants.Method)
	}
	if out.Participants.Summary.N == 0 {
		t.Fatal("no results")
	}
}

func TestMethodAndSSLNames(t *testing.T) {
	ssls := SSLMethodNames()
	if len(ssls) != 7 { // the paper's six + the VICReg extension
		t.Fatalf("SSL methods = %v", ssls)
	}
	env, err := NewEnvironment("cifar10-q(2,500)", ScaleSmoke, 1)
	if err != nil {
		t.Fatalf("NewEnvironment: %v", err)
	}
	// An unknown name lists the valid ones: every SSL flavour's Calibre.
	_, err = Run(context.Background(), env, "nope")
	if err == nil {
		t.Fatal("unknown method accepted")
	}
	for _, s := range ssls {
		if !strings.Contains(err.Error(), "calibre-"+s) {
			t.Fatalf("unknown-method error does not list calibre-%s: %v", s, err)
		}
	}
}

func TestNetworkedFederationFacade(t *testing.T) {
	env, err := NewEnvironment("cifar10-q(2,500)", ScaleSmoke, 11)
	if err != nil {
		t.Fatalf("NewEnvironment: %v", err)
	}
	clients := env.Participants[:2]
	world, err := Scenario{Method: "fedavg"}.BuildOn(env)
	if err != nil {
		t.Fatalf("BuildOn: %v", err)
	}
	method := world.Method
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

// TestAttachCheckpointsRefusesServerResumeOfClientRows: a networked
// federation's client rows live in the client processes, so the server's
// snapshots of ditto cannot resume it. The library wiring refuses, before
// the directory is touched, and reports the snapshots as Stateful; the
// simulator, whose snapshots carry the rows, resumes the same method.
func TestAttachCheckpointsRefusesServerResumeOfClientRows(t *testing.T) {
	env, err := NewEnvironment("cifar10-q(2,500)", ScaleSmoke, 11)
	if err != nil {
		t.Fatalf("NewEnvironment: %v", err)
	}
	world, err := Scenario{Method: "ditto"}.BuildOn(env)
	if err != nil {
		t.Fatalf("BuildOn: %v", err)
	}
	dir := t.TempDir()
	var f Federation
	_, err = AttachCheckpoints(world.Method, Checkpoints{Dir: dir, Resume: true, Fingerprint: "ditto", Runtime: "server"}, &f)
	if !errors.Is(err, fl.ErrStatefulResume) {
		t.Fatalf("server resume of ditto: err = %v, want fl.ErrStatefulResume", err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("directory not left empty: entries=%v err=%v", entries, err)
	}
	if f.OnCheckpoint != nil {
		t.Fatal("a refused attach set the Federation's checkpoint hook")
	}
	a, err := AttachCheckpoints(world.Method, Checkpoints{Dir: dir, Fingerprint: "ditto", Runtime: "server"}, &f)
	if err != nil || !a.Stateful {
		t.Fatalf("server checkpoints of ditto: Stateful = %v, err = %v; want true, nil", a != nil && a.Stateful, err)
	}
	a, err = AttachCheckpoints(world.Method, Checkpoints{Dir: t.TempDir(), Resume: true, Fingerprint: "ditto", Runtime: "simulator"}, &f)
	if err != nil || a.Stateful {
		t.Fatalf("simulator resume of ditto: Stateful = %v, err = %v; want false, nil", a != nil && a.Stateful, err)
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
	grid.Methods = []string{"fedavg", "calibre-simclr[bogus]"}
	if _, err := RunSweep(context.Background(), grid, SweepConfig{Workers: 2}); err == nil {
		t.Fatal("grid naming an unknown variant accepted")
	}
}

func TestMetricsFacade(t *testing.T) {
	reg := NewMetricsRegistry()
	reg.ObserveRound(obs.RoundSample{
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
	var snap obs.Snapshot
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
