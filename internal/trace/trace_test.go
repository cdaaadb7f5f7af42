package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// memSink collects batches in memory.
type memSink struct {
	bytes.Buffer
	closed int
}

func (m *memSink) Close() error { m.closed++; return nil }

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Emit(Event{Kind: KindRoundStart})
	if got := r.Now(); got != 0 {
		t.Fatalf("nil Now = %d", got)
	}
	if r.WithCell("x") != nil {
		t.Fatal("nil WithCell returned non-nil")
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if New(nil, Config{}) != nil {
		t.Fatal("New(nil sink) should yield a nil recorder")
	}
}

func TestRoundTrip(t *testing.T) {
	var sink memSink
	r := New(&sink, Config{Clock: StepClock(10)})
	in := []Event{
		{Kind: KindRoundStart, TS: r.Now(), Runtime: "sim", Round: 0, Client: -1, N: 3},
		{Kind: KindClientDispatch, TS: r.Now(), Runtime: "sim", Round: 0, Client: 7},
		{Kind: KindClientUpdate, TS: r.Now(), Runtime: "sim", Round: 0, Client: 7,
			Wire: "delta", Bytes: 512, Dur: 90, Loss: 0.25, Norm: 1.75},
		{Kind: KindClientDrop, TS: r.Now(), Runtime: "sim", Round: 0, Client: 8, Reason: DropStraggler},
		{Kind: KindClientDrop, TS: r.Now(), Runtime: "sim", Round: 0, Client: 9, Reason: DropRejected, Bytes: 24},
		{Kind: KindClientLate, TS: r.Now(), Runtime: "sim", Round: 0, Client: 5},
		{Kind: KindRoundEnd, TS: r.Now(), Runtime: "sim", Round: 0, Client: -1, N: 1, Dur: 40, Loss: 0.25,
			Adversarial: 1, Rejected: 2},
		{Kind: KindCheckpointSave, TS: r.Now(), Runtime: "sim", Round: 0, Client: -1, Note: "round 0"},
	}
	for _, e := range in {
		r.Emit(e)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.closed != 1 {
		t.Fatalf("sink closed %d times, want 1", sink.closed)
	}
	out, err := ReadAll(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d events, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("event %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
}

// TestEncodingDeterministic pins that identical event sequences encode to
// identical bytes — the foundation of the byte-identity acceptance test.
func TestEncodingDeterministic(t *testing.T) {
	run := func() []byte {
		var sink memSink
		r := New(&sink, Config{Clock: StepClock(7), RingSize: 3})
		for round := 0; round < 4; round++ {
			r.Emit(Event{Kind: KindRoundStart, TS: r.Now(), Round: round, Client: -1, N: 2})
			r.Emit(Event{Kind: KindClientUpdate, TS: r.Now(), Round: round, Client: round % 2,
				Wire: "dense", Bytes: 64, Loss: 1.5})
			r.Emit(Event{Kind: KindRoundEnd, TS: r.Now(), Round: round, Client: -1, N: 1})
		}
		r.Close()
		return sink.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical runs encoded differently:\n%s\n---\n%s", a, b)
	}
}

func TestCellStamping(t *testing.T) {
	var sink memSink
	r := New(&sink, Config{Clock: StepClock(1)})
	cellA := r.WithCell("method=a")
	cellA.Emit(Event{Kind: KindCellStart, Round: -1, Client: -1})
	cellA.Emit(Event{Kind: KindRoundStart, Round: 0, Client: -1, Cell: "explicit"})
	r.Emit(Event{Kind: KindRoundStart, Round: 0, Client: -1})
	r.Close()
	out, err := ReadAll(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Cell != "method=a" {
		t.Errorf("view did not stamp cell: %+v", out[0])
	}
	if out[1].Cell != "explicit" {
		t.Errorf("explicit cell overwritten: %+v", out[1])
	}
	if out[2].Cell != "" {
		t.Errorf("root recorder stamped a cell: %+v", out[2])
	}
}

func TestRingFlushPreservesOrder(t *testing.T) {
	var sink memSink
	r := New(&sink, Config{Clock: StepClock(1), RingSize: 4})
	const total = 31 // not a multiple of the ring, exercises partial final flush
	for i := 0; i < total; i++ {
		r.Emit(Event{Kind: KindClientUpdate, TS: int64(i), Round: i, Client: i})
	}
	r.Close()
	out, err := ReadAll(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != total {
		t.Fatalf("decoded %d events, want %d", len(out), total)
	}
	for i, e := range out {
		if e.Round != i || e.TS != int64(i) {
			t.Fatalf("event %d out of order: %+v", i, e)
		}
	}
}

func TestConcurrentEmit(t *testing.T) {
	var sink memSink
	r := New(&sink, Config{RingSize: 8})
	var wg sync.WaitGroup
	const workers, per = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Emit(Event{Kind: KindClientUpdate, TS: r.Now(), Round: i, Client: w})
			}
		}(w)
	}
	wg.Wait()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := ReadAll(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != workers*per {
		t.Fatalf("decoded %d events, want %d (recorder must not drop)", len(out), workers*per)
	}
}

func TestEmitAfterCloseIsNoop(t *testing.T) {
	var sink memSink
	r := New(&sink, Config{})
	r.Emit(Event{Kind: KindRoundStart, Round: 0, Client: -1})
	r.Close()
	n := sink.Len()
	r.Emit(Event{Kind: KindRoundEnd, Round: 0, Client: -1})
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.Len() != n || sink.closed != 1 {
		t.Fatalf("emit/close after close had effects: len %d→%d, closed %d", n, sink.Len(), sink.closed)
	}
}

// errSink fails every write; the recorder must stay usable and report the
// first error, never blocking the federation it instruments.
type errSink struct{ calls int }

func (s *errSink) Write(p []byte) (int, error) { s.calls++; return 0, errors.New("disk gone") }

func TestSinkErrorIsStickyNotFatal(t *testing.T) {
	sink := &errSink{}
	r := New(sink, Config{RingSize: 2})
	for i := 0; i < 10; i++ {
		r.Emit(Event{Kind: KindRoundStart, Round: i, Client: -1})
	}
	if err := r.Flush(); err == nil {
		t.Fatal("flush swallowed the sink error")
	}
	if err := r.Close(); err == nil {
		t.Fatal("close swallowed the sink error")
	}
	if sink.calls != 1 {
		t.Fatalf("sink written %d times after first error, want 1", sink.calls)
	}
}

func TestSpecialFloatsSkipped(t *testing.T) {
	var sink memSink
	r := New(&sink, Config{})
	r.Emit(Event{Kind: KindRoundEnd, Round: 0, Client: -1, Loss: math.NaN()})
	r.Emit(Event{Kind: KindRoundEnd, Round: 1, Client: -1, Loss: math.Inf(1)})
	r.Close()
	out, err := ReadAll(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatalf("NaN/Inf loss produced invalid JSON: %v", err)
	}
	if out[0].Loss != 0 || out[1].Loss != 0 {
		t.Fatalf("special floats leaked: %+v", out)
	}
}

func TestStringEscaping(t *testing.T) {
	var sink memSink
	r := New(&sink, Config{})
	note := "quote\" backslash\\ newline\n tab\t ctrl\x01 utf8™ bad\xff"
	r.Emit(Event{Kind: KindCellEnd, Round: -1, Client: -1, Note: note, Cell: `k="v"`})
	r.Close()
	out, err := ReadAll(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Replace(note, "\xff", "�", 1)
	if out[0].Note != want {
		t.Fatalf("note round-trip: got %q, want %q", out[0].Note, want)
	}
	if out[0].Cell != `k="v"` {
		t.Fatalf("cell round-trip: got %q", out[0].Cell)
	}
}

func TestReaderTornTail(t *testing.T) {
	var sink memSink
	r := New(&sink, Config{})
	r.Emit(Event{Kind: KindRoundStart, Round: 0, Client: -1})
	r.Emit(Event{Kind: KindRoundEnd, Round: 0, Client: -1})
	r.Close()
	full := sink.Bytes()
	// Cut the file mid final record, as a crash would.
	torn := full[:len(full)-5]
	events, err := ReadAll(bytes.NewReader(torn))
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("torn tail error = %v, want ErrTruncated", err)
	}
	if len(events) != 1 || events[0].Kind != KindRoundStart {
		t.Fatalf("torn tail should keep the complete prefix, got %+v", events)
	}
}

func TestReaderCorruption(t *testing.T) {
	cases := map[string]string{
		"bad length byte": "x7 {}\n",
		"empty prefix":    " {}\n",
		"oversized claim": "99999999 {}\n",
		"missing newline": `19 {"t":"round_start"}X`,
		"not json":        "8 not-json\n",
		"missing kind":    `11 {"round":1}` + "\n",
		"wrong type":      `14 {"t":1,"ts":2}` + "\n",
		"trailing junk":   "3 {}x\n",
	}
	for name, in := range cases {
		if _, err := ReadAll(strings.NewReader(in)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestReaderCleanEOFAfterRecords(t *testing.T) {
	var sink memSink
	r := New(&sink, Config{})
	r.Emit(Event{Kind: KindResume, Round: 3, Client: -1})
	r.Close()
	tr := NewReader(bytes.NewReader(sink.Bytes()))
	if _, err := tr.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Next(); err != io.EOF {
		t.Fatalf("want clean io.EOF, got %v", err)
	}
}

func TestFileSinkAppendAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	for i := 0; i < 2; i++ {
		s, err := OpenFile(path, FileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		r := New(s, Config{Clock: StepClock(1)})
		r.Emit(Event{Kind: KindResume, Round: i, Client: -1})
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Round != 0 || events[1].Round != 1 {
		t.Fatalf("append across opens lost records: %+v", events)
	}
}

func TestFileSinkTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFile(path, FileOptions{Truncate: true})
	if err != nil {
		t.Fatal(err)
	}
	r := New(s, Config{})
	r.Emit(Event{Kind: KindRoundStart, Round: 0, Client: -1})
	r.Close()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := ReadAll(f); err != nil {
		t.Fatalf("truncate left stale bytes: %v", err)
	}
}

func TestEmitAllocationDiscipline(t *testing.T) {
	var sink memSink
	r := New(&sink, Config{RingSize: 64})
	e := Event{Kind: KindClientUpdate, Runtime: "sim", Round: 1, Client: 2,
		Wire: "delta", Bytes: 100, Dur: 5, Loss: 0.5}
	// Warm up ring + scratch growth, then steady state must not allocate.
	for i := 0; i < 256; i++ {
		r.Emit(e)
	}
	avg := testing.AllocsPerRun(512, func() { r.Emit(e) })
	if avg > 0.01 {
		t.Fatalf("Emit allocates %.2f objects per call in steady state", avg)
	}
}
