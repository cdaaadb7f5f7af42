package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(3)
	r.Gauge("y").Set(7)
	r.ObserveRound(RoundSample{Round: 1})
	r.AddParticipation([]int{1, 2})
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Rounds) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
	if _, ok := snap.LastRound(); ok {
		t.Fatal("nil registry reported a last round")
	}
}

func TestObserveRoundAggregates(t *testing.T) {
	r := NewRegistry()
	r.ObserveRound(RoundSample{
		Runtime: "sim", Round: 0, Participants: 4, Responders: 3, Stragglers: 1,
		UplinkWireBytes: 100, MeanLoss: 2.5,
	})
	r.ObserveRound(RoundSample{
		Runtime: "sim", Round: 1, Participants: 4, Responders: 4,
		LateUpdates: 1, DeadlineExpired: true,
		UplinkWireBytes: 50, MeanLoss: 1.25,
	})
	r.AddParticipation([]int{0, 1, 2})
	r.AddParticipation([]int{0, 1, 2, 3})

	snap := r.Snapshot()
	want := map[string]int64{
		CounterRounds:          2,
		CounterResponders:      7,
		CounterStragglers:      1,
		CounterLateUpdates:     1,
		CounterDeadlineExpired: 1,
		CounterUplinkWireBytes: 150,
	}
	for name, n := range want {
		if got := snap.Counters[name]; got != n {
			t.Errorf("counter %s = %d, want %d", name, got, n)
		}
	}
	if got := snap.Gauges[GaugeRound]; got != 1 {
		t.Errorf("gauge round = %d, want 1", got)
	}
	if len(snap.Rounds) != 2 {
		t.Fatalf("rounds ring len = %d, want 2", len(snap.Rounds))
	}
	last, ok := snap.LastRound()
	if !ok || last.Round != 1 || last.MeanLoss != 1.25 {
		t.Fatalf("last round = %+v, ok=%v", last, ok)
	}
	if snap.Participation["0"] != 2 || snap.Participation["3"] != 1 {
		t.Fatalf("participation = %v", snap.Participation)
	}
}

func TestRoundRingBounded(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < roundWindow+10; i++ {
		r.ObserveRound(RoundSample{Round: i})
	}
	snap := r.Snapshot()
	if len(snap.Rounds) != roundWindow {
		t.Fatalf("ring len = %d, want %d", len(snap.Rounds), roundWindow)
	}
	if snap.Rounds[0].Round != 10 || snap.Rounds[len(snap.Rounds)-1].Round != roundWindow+9 {
		t.Fatalf("ring window wrong: first=%d last=%d",
			snap.Rounds[0].Round, snap.Rounds[len(snap.Rounds)-1].Round)
	}
	if snap.Counters[CounterRounds] != int64(roundWindow+10) {
		t.Fatalf("rounds_total = %d, want %d", snap.Counters[CounterRounds], roundWindow+10)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(1)
	r.AddParticipation([]int{5})
	snap := r.Snapshot()
	snap.Counters["c"] = 99
	snap.Participation["5"] = 99
	if got := r.Snapshot().Counters["c"]; got != 1 {
		t.Fatalf("mutating snapshot leaked into registry: %d", got)
	}
	if got := r.Snapshot().Participation["5"]; got != 1 {
		t.Fatalf("mutating snapshot participation leaked: %d", got)
	}
}

// TestPromGolden pins the exact Prometheus text encoding: deterministic
// ordering is part of the contract.
func TestPromGolden(t *testing.T) {
	r := NewRegistry()
	r.ObserveRound(RoundSample{
		Runtime: "sim", Round: 0, Participants: 3, Responders: 2, Stragglers: 1,
		UplinkWireBytes: 40, MeanLoss: 0.5,
	})
	r.AddParticipation([]int{10, 2, 2})
	r.Gauge(GaugeSweepCellsInFlight).Set(1)

	var b strings.Builder
	if err := r.Snapshot().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE calibre_adversarial_updates_total counter
calibre_adversarial_updates_total 0
# TYPE calibre_aggregator_rejected_updates_total counter
calibre_aggregator_rejected_updates_total 0
# TYPE calibre_deadline_expired_total counter
calibre_deadline_expired_total 0
# TYPE calibre_late_updates_total counter
calibre_late_updates_total 0
# TYPE calibre_responders_total counter
calibre_responders_total 2
# TYPE calibre_rounds_total counter
calibre_rounds_total 1
# TYPE calibre_stragglers_total counter
calibre_stragglers_total 1
# TYPE calibre_uplink_wire_bytes_total counter
calibre_uplink_wire_bytes_total 40
# TYPE calibre_round gauge
calibre_round 0
# TYPE calibre_sweep_cells_in_flight gauge
calibre_sweep_cells_in_flight 1
# TYPE calibre_client_rounds_total counter
calibre_client_rounds_total{client="2"} 2
calibre_client_rounds_total{client="10"} 1
# TYPE calibre_round_mean_loss gauge
calibre_round_mean_loss 0.5
`
	if got := b.String(); got != want {
		t.Errorf("prometheus text mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.ObserveRound(RoundSample{Runtime: "sim", Round: 3, Responders: 2, MeanLoss: 1})
	srv, addr, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode /metrics: %v", err)
	}
	resp.Body.Close()
	if snap.Counters[CounterRounds] != 1 || snap.Gauges[GaugeRound] != 3 {
		t.Fatalf("unexpected snapshot over HTTP: %+v", snap)
	}

	resp, err = http.Get("http://" + addr.String() + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "calibre_rounds_total 1") {
		t.Fatalf("prom endpoint missing rounds counter:\n%s", body)
	}
}

// TestConcurrentSnapshot hammers Snapshot from scraper goroutines while
// writers record rounds and counters — the registry-local half of the
// race-freedom contract (the flnet-integrated half lives in flnet).
func TestConcurrentSnapshot(t *testing.T) {
	r := NewRegistry()
	const writers, scrapes = 4, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.ObserveRound(RoundSample{Runtime: "sim", Round: i, Responders: w})
				r.Counter("extra").Add(1)
				r.AddParticipation([]int{w, i % 8})
				i++
			}
		}(w)
	}
	for i := 0; i < scrapes; i++ {
		snap := r.Snapshot()
		if int64(len(snap.Rounds)) > snap.Counters[CounterRounds] {
			t.Fatalf("snapshot inconsistent: ring %d > rounds_total %d",
				len(snap.Rounds), snap.Counters[CounterRounds])
		}
	}
	close(stop)
	wg.Wait()
}

func ExampleRegistry_Snapshot() {
	r := NewRegistry()
	r.ObserveRound(RoundSample{Runtime: "sim", Round: 0, Participants: 2, Responders: 2, MeanLoss: 0.25})
	snap := r.Snapshot()
	fmt.Println("rounds:", snap.Counters[CounterRounds])
	last, _ := snap.LastRound()
	fmt.Println("responders:", last.Responders)
	// Output:
	// rounds: 1
	// responders: 2
}

func ExampleSnapshot_WriteProm() {
	r := NewRegistry()
	r.Counter(CounterRounds).Add(2)
	var b strings.Builder
	_ = r.Snapshot().WriteProm(&b)
	fmt.Print(b.String())
	// Output:
	// # TYPE calibre_rounds_total counter
	// calibre_rounds_total 2
}
