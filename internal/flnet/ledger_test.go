package flnet

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"calibre/internal/eval"
	"calibre/internal/experiments"
)

// TestGoldenLedgerOverTCP is the flnet leg of the golden ledger
// (internal/baselines/testdata/ledger.txt, pinned there through the
// simulator): the same two smoke rounds at seed 42 through a loopback
// server and in-process RunClients must end on the digest, mean, variance
// and bottom decile the ledger records — so every vector crossed the wire
// with its bits intact, in both directions. One method per route an update
// can take: fedavg (streaming sink), scaffold (a ControlDelta frame beside
// the Params frame), lg-fedavg (masked average) and calibre-simclr
// (buffering sink, divergence weights in the gob header). The ledger's
// novel-client columns are not compared: a server personalizes its
// participants only.
func TestGoldenLedgerOverTCP(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "baselines", "testdata", "ledger.txt"))
	if err != nil {
		t.Fatal(err)
	}
	ledger := map[string]string{} // method → "digest=… mean=… var=… bottom10=…"
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, row, _ := strings.Cut(line, " ")
		if i := strings.Index(row, " novel_mean="); i >= 0 {
			row = row[:i]
		}
		ledger[name] = row
	}
	const seed = 42
	env, err := experiments.BuildEnvironment(experiments.Settings()["cifar10-q(2,500)"], experiments.ScaleSmoke, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fedavg", "scaffold", "lg-fedavg", "calibre-simclr"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want, ok := ledger[name]
			if !ok {
				t.Fatalf("the ledger has no line for %s", name)
			}
			m, err := experiments.BuildMethod(env, name)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := NewServer(ServerConfig{
				Addr: "127.0.0.1:0", NumClients: len(env.Participants), Rounds: 2, ClientsPerRound: env.Preset.ClientsPerRound,
				Seed: seed, Aggregator: m.Aggregator, InitGlobal: m.InitGlobal, IOTimeout: 30 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			var wg sync.WaitGroup
			errs := make([]error, len(env.Participants))
			for i, c := range env.Participants {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[i] = RunClient(ctx, ClientConfig{Addr: srv.Addr().String(), ClientID: c.ID, Data: c,
						Trainer: m.Trainer, Personalizer: m.Personalizer, Seed: seed, IOTimeout: 30 * time.Second})
				}()
			}
			res, err := srv.Run(ctx)
			wg.Wait()
			if err != nil {
				t.Fatalf("server: %v", err)
			}
			accs := make([]float64, len(env.Participants))
			for i, c := range env.Participants {
				if errs[i] != nil {
					t.Fatalf("client %d: %v", c.ID, errs[i])
				}
				acc, ok := res.Accuracies[c.ID]
				if !ok {
					t.Fatalf("client %d was not personalized", c.ID)
				}
				accs[i] = acc
			}
			g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
			s := eval.Summarize(accs)
			got := fmt.Sprintf("digest=%016x mean=%s var=%s bottom10=%s", ledgerDigest(res.Global), g(s.Mean), g(s.Variance), g(s.Bottom10))
			if got != want {
				t.Errorf("%s over TCP drifted from the ledger:\n got  %s\n want %s", name, got, want)
			}
		})
	}
}

// ledgerDigest is the ledger's digest: FNV-64a over a vector's IEEE-754
// bits.
func ledgerDigest(v []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		_, _ = h.Write(b[:])
	}
	return h.Sum64()
}
