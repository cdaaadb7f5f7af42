package fl

import (
	"math/rand"
	"sync"

	"calibre/internal/param"
)

// ClientTable is a method's per-client state, as data: one row per client
// it has trained, each a param.Vector whose layout the method's trainer
// alone knows (a private model half, a personal model, control variates, an
// SSL flavour's target network). A trainer keeps nothing per client but its
// row: it lends a model for each local update and binds it to the row, or
// to a borrowed copy of the global. The round core copies the table into
// every checkpoint (SimState.Rows) and a resumed run starts from that copy,
// so a method whose clients carry cross-round state resumes bit-identically.
// A method with no such state has no table (Method.Clients is nil).
//
// The zero value is an empty table, safe for concurrent use on distinct
// clients. A row is the trainer's while that client trains, and nothing
// trains a client twice at once (Trainer).
type ClientTable struct {
	mu   sync.Mutex
	rows map[int]param.Vector
}

// Row returns client id's row, building it with build on first contact;
// the boolean reports whether the client already had one.
//
// Row consumes exactly ONE draw from rng either way: the draw seeds the
// RNG handed to build, which runs only on first contact. The caller's
// stream therefore never depends on whether the table holds the client —
// so a resumed run, whose table came back from a checkpoint, trains
// exactly as the uninterrupted one. A trainer without a row for the update
// takes the same one draw itself.
//
// build runs outside the table's lock, so first contacts build in
// parallel: nothing trains one client twice at once (Trainer), so nothing
// else builds the same row meanwhile.
func (t *ClientTable) Row(rng *rand.Rand, id int, build func(*rand.Rand) (param.Vector, error)) (param.Vector, bool, error) {
	seed := rng.Int63()
	if row, ok := t.Peek(id); ok {
		return row, true, nil
	}
	row, err := build(rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, false, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rows == nil {
		t.rows = make(map[int]param.Vector)
	}
	t.rows[id] = row
	return row, false, nil
}

// Peek returns client id's row without building one.
func (t *ClientTable) Peek(id int) (param.Vector, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	row, ok := t.rows[id]
	return row, ok
}

// Len returns the number of clients with a row.
func (t *ClientTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.rows)
}

// snapshot returns a copy of every row, nil for a nil or empty table: the
// checkpoint keeps the copy while the next round trains in the rows.
func (t *ClientTable) snapshot() map[int]param.Vector {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.rows) == 0 {
		return nil
	}
	out := make(map[int]param.Vector, len(t.rows))
	for id, row := range t.rows {
		out[id] = row.Clone()
	}
	return out
}

// restore replaces the table's rows with copies of rows.
func (t *ClientTable) restore(rows map[int]param.Vector) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows = make(map[int]param.Vector, len(rows))
	for id, row := range rows {
		t.rows[id] = row.Clone()
	}
}
