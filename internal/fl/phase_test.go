package fl

import (
	"bytes"
	"context"
	"math/rand"
	"sync/atomic"
	"testing"

	"calibre/internal/param"
	"calibre/internal/partition"
	"calibre/internal/trace"
)

// clockTrainer advances a test clock by step for every local update.
type clockTrainer struct {
	fakeTrainer
	clock *atomic.Int64
	step  int64
}

func (c *clockTrainer) Train(ctx context.Context, rng *rand.Rand, cl *partition.Client, global param.Vector, round int) (*Update, error) {
	c.clock.Add(c.step)
	return c.fakeTrainer.Train(ctx, rng, cl, global, round)
}

// clockAggregator is a batch aggregator — everything in the sink's Finish
// — advancing a test clock by step per round.
type clockAggregator struct {
	clock *atomic.Int64
	step  int64
}

func (a clockAggregator) Aggregate(global param.Vector, updates []*Update) (param.Vector, error) {
	a.clock.Add(a.step)
	return WeightedAverage{}.Aggregate(global, updates)
}

// TestPhasesAttributeTheIteration: under a clock that only the round's
// stages move — each local update, the aggregator's Finish, the checkpoint
// hook and OnRound by its own amount — every phase event carries exactly
// its stage's time, a round's phases tile its iteration in emission order,
// and phases plus residue are the iteration: the draw-to-draw span, and
// for the final round the end of its last phase.
func TestPhasesAttributeTheIteration(t *testing.T) {
	const train, finish, handOff, hooks = 1_000, 20_000, 300_000, 4_000_000
	var clock atomic.Int64
	m := fakeMethod(&clockTrainer{clock: &clock, step: train})
	m.Aggregator = clockAggregator{&clock, finish}
	var sink bytes.Buffer
	cfg := SimConfig{Rounds: 3, ClientsPerRound: 2, Seed: 3, Parallelism: 1,
		Federation: Federation{CheckpointEvery: 2, OnCheckpoint: func(*SimState) error { clock.Add(handOff); return nil },
			Recorder: trace.New(&sink, trace.Config{Clock: clock.Load})},
		OnRound: func(RoundStats) { clock.Add(hooks) }}
	sim, err := NewSimulator(cfg, m, testClients(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sim.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Recorder.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadAll(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rounds := make([][]trace.Event, cfg.Rounds)
	for _, e := range events {
		if e.Kind.Phase() >= 0 {
			rounds[e.Round] = append(rounds[e.Round], e)
		}
	}
	emitted := []trace.Kind{trace.KindPhaseDraw, trace.KindPhaseCollect, trace.KindPhaseIngest, trace.KindPhaseReduce,
		trace.KindPhasePlanes, trace.KindPhaseCheckpoint, trace.KindPhaseHooks, trace.KindPhaseCheckpointWait}
	for r, phases := range rounds {
		due := int64(0)
		if CheckpointDue(r+1, cfg.CheckpointEvery, cfg.Rounds) {
			due = handOff
		}
		want := map[trace.Kind]int64{trace.KindPhaseCollect: 2 * train, trace.KindPhaseReduce: finish,
			trace.KindPhaseCheckpoint: due, trace.KindPhaseHooks: hooks}
		if len(phases) != len(emitted) {
			t.Fatalf("round %d has %d phase events, want %d: %+v", r, len(phases), len(emitted), phases)
		}
		var sum int64
		for i, e := range phases {
			if e.Kind != emitted[i] {
				t.Errorf("round %d phase %d is %s, want %s", r, i, e.Kind, emitted[i])
			}
			if e.Dur != want[e.Kind] {
				t.Errorf("round %d %s: Dur %d, want %d", r, e.Kind, e.Dur, want[e.Kind])
			}
			if i > 0 && e.TS != phases[i-1].TS+phases[i-1].Dur {
				t.Errorf("round %d %s starts at %d, not where %s ended", r, e.Kind, e.TS, phases[i-1].Kind)
			}
			sum += e.Dur
		}
		last := phases[len(phases)-1]
		end := last.TS + last.Dur
		if r+1 < len(rounds) {
			end = rounds[r+1][0].TS
		}
		iteration := end - phases[0].TS
		if residue := iteration - sum; residue != 0 || iteration != 2*train+finish+due+hooks {
			t.Errorf("round %d: iteration %d = phases %d + residue %d, want every stage's time %d",
				r, iteration, sum, residue, 2*train+finish+due+hooks)
		}
	}
}
