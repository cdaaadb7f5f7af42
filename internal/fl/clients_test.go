package fl

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"calibre/internal/param"
	"calibre/internal/partition"
)

// TestClientTableRowTakesOneDraw: Row takes one draw from the caller's RNG
// whether it builds the row or finds it, builds from that draw's seed, and
// builds a client's row once; a checkpoint's copy and a restored table
// share no storage with the rows they came from.
func TestClientTableRowTakesOneDraw(t *testing.T) {
	var table ClientTable
	builds := 0
	build := func(rng *rand.Rand) (param.Vector, error) {
		builds++
		return param.Vector{rng.Float64()}, nil
	}
	for _, wantKnown := range []bool{false, true} {
		rng, ref := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
		row, known, err := table.Row(rng, 3, build)
		if err != nil || known != wantKnown {
			t.Fatalf("Row: known = %v, err = %v; want known = %v", known, err, wantKnown)
		}
		if want := rand.New(rand.NewSource(ref.Int63())).Float64(); row[0] != want {
			t.Fatalf("row built from %v, want the first draw's seed (%v)", row[0], want)
		}
		if rng.Int63() != ref.Int63() {
			t.Fatalf("known = %v: Row did not take exactly one draw", known)
		}
	}
	if builds != 1 || table.Len() != 1 {
		t.Fatalf("%d builds, %d rows; want one of each", builds, table.Len())
	}

	snap := table.snapshot()
	row, _ := table.Peek(3)
	row[0] = 42
	if snap[3][0] == 42 {
		t.Fatal("the snapshot shares the row's storage")
	}
	var restored ClientTable
	restored.restore(snap)
	snap[3][0] = -1
	if got, _ := restored.Peek(3); got[0] == -1 || !reflect.DeepEqual(restored.snapshot(), map[int]param.Vector{3: got}) {
		t.Fatalf("restored table %v shares storage with, or differs from, the snapshot", restored.snapshot())
	}
	if (*ClientTable)(nil).snapshot() != nil || new(ClientTable).snapshot() != nil {
		t.Fatal("a nil or empty table snapshots to rows")
	}
}

// rowTrainer counts each client's updates in its row and trains the
// global toward the count: a method whose updates depend on cross-round
// client state, and only through its table.
type rowTrainer struct{ table *ClientTable }

func (r rowTrainer) Train(_ context.Context, rng *rand.Rand, c *partition.Client, global param.Vector, _ int) (*Update, error) {
	row, _, err := r.table.Row(rng, c.ID, func(*rand.Rand) (param.Vector, error) { return param.Vector{0}, nil })
	if err != nil {
		return nil, err
	}
	row[0]++
	out := global.Clone()
	out[c.ID%len(out)] += row[0] * rng.Float64()
	return &Update{ClientID: c.ID, Params: out, NumSamples: 1}, nil
}

// TestCheckpointCarriesTheClientTable: the round core copies the method's
// client table into every checkpoint, and a fresh method resumed from one
// finishes exactly as the uninterrupted run; a snapshot with rows does not
// resume a method without a table.
func TestCheckpointCarriesTheClientTable(t *testing.T) {
	build := func() *Method {
		table := new(ClientTable)
		m := fakeMethod(rowTrainer{table})
		m.Clients = table
		return m
	}
	clients := testClients(t, 6)
	var at2 *SimState
	cfg := SimConfig{Rounds: 5, ClientsPerRound: 3, Seed: 4, Federation: Federation{
		OnCheckpoint: func(st *SimState) error {
			if st.Round == 2 {
				// The round loop lends Global only for the call: keep a copy.
				at2 = &SimState{Round: st.Round, Global: st.Global.Clone(), History: st.History,
					EligibleCounts: st.EligibleCounts, Rows: st.Rows}
			}
			return nil
		},
	}}
	sim, err := NewSimulator(cfg, build(), clients)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := sim.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if at2 == nil || len(at2.Rows) == 0 {
		t.Fatalf("the round-2 checkpoint carries no rows: %+v", at2)
	}
	cfg.OnCheckpoint, cfg.ResumeFrom = nil, at2
	if sim, err = NewSimulator(cfg, build(), clients); err != nil {
		t.Fatal(err)
	}
	got, _, err := sim.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed global %v, uninterrupted %v", got, want)
	}
	if sim, err = NewSimulator(cfg, fakeMethod(&fakeTrainer{}), clients); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sim.Run(context.Background()); err == nil {
		t.Fatal("a snapshot with client rows resumed a method without a table")
	}
}
