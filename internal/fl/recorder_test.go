package fl

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"calibre/internal/param"
	"calibre/internal/trace"
)

// TestTraceDoesNotPerturbRun pins the flight recorder's half of the
// bit-identity contract (the networked half lives in flnet): a fully
// traced simulation produces exactly the same global model and RoundStats
// history as a bare one, and with an injected clock the emitted JSONL
// trace bytes are deterministic across two runs.
func TestTraceDoesNotPerturbRun(t *testing.T) {
	clients := testClients(t, 8)
	runOnce := func(rec *trace.Recorder) (param.Vector, []RoundStats) {
		t.Helper()
		cfg := SimConfig{
			Rounds: 4, ClientsPerRound: 3, Seed: 99,
			DropoutRate: 0.3, Federation: Federation{Quorum: 1, Recorder: rec},
			Parallelism: 1, // injected StepClock is single-goroutine only
		}
		sim, err := NewSimulator(cfg, fakeMethod(&fakeTrainer{}), clients)
		if err != nil {
			t.Fatalf("NewSimulator: %v", err)
		}
		global, history, err := sim.Run(context.Background())
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if err := rec.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		return global, history
	}

	plainGlobal, plainHistory := runOnce(nil)
	var sink1 bytes.Buffer
	tracedGlobal, tracedHistory := runOnce(trace.New(&sink1, trace.Config{Clock: trace.StepClock(100)}))

	if !reflect.DeepEqual(plainGlobal, tracedGlobal) {
		t.Errorf("global model drifted under tracing:\nbare:   %v\ntraced: %v", plainGlobal, tracedGlobal)
	}
	if !reflect.DeepEqual(plainHistory, tracedHistory) {
		t.Errorf("RoundStats history drifted under tracing:\nbare:   %+v\ntraced: %+v", plainHistory, tracedHistory)
	}

	// Injected clock ⇒ byte-identical trace across runs.
	var sink2 bytes.Buffer
	runOnce(trace.New(&sink2, trace.Config{Clock: trace.StepClock(100)}))
	if !bytes.Equal(sink1.Bytes(), sink2.Bytes()) {
		t.Errorf("trace bytes differ between identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
			sink1.Bytes(), sink2.Bytes())
	}

	// And the trace actually describes the run: 4 round spans, every
	// client span inside one, drops attributed to the dropout model.
	events, err := trace.ReadAll(bytes.NewReader(sink1.Bytes()))
	if err != nil {
		t.Fatalf("decode trace: %v", err)
	}
	counts := map[trace.Kind]int{}
	for _, e := range events {
		counts[e.Kind]++
		if e.Runtime != "sim" {
			t.Fatalf("event with wrong runtime: %+v", e)
		}
		switch e.Kind {
		case trace.KindClientUpdate:
			if e.Client < 0 || e.Wire != "dense" || e.Bytes <= 0 || e.Dur <= 0 {
				t.Errorf("implausible client_update: %+v", e)
			}
		case trace.KindClientDrop:
			if e.Reason != trace.DropStraggler {
				t.Errorf("dropout drop misattributed: %+v", e)
			}
		}
	}
	if counts[trace.KindRoundStart] != 4 || counts[trace.KindRoundEnd] != 4 {
		t.Errorf("round span counts = %d start / %d end, want 4/4", counts[trace.KindRoundStart], counts[trace.KindRoundEnd])
	}
	if counts[trace.KindClientDispatch] == 0 || counts[trace.KindClientDispatch] != counts[trace.KindClientUpdate] {
		t.Errorf("dispatch %d != update %d", counts[trace.KindClientDispatch], counts[trace.KindClientUpdate])
	}
	if counts[trace.KindClientDrop] == 0 {
		t.Error("0.3 dropout over 4 rounds produced no client_drop events (seed-dependent; pick another seed)")
	}
}

// TestTraceAvailabilityDropReason pins that a seeded availability trace
// attributes its drops as reason=trace, not straggler.
func TestTraceAvailabilityDropReason(t *testing.T) {
	clients := testClients(t, 8)
	var sink bytes.Buffer
	cfg := SimConfig{
		Rounds: 4, ClientsPerRound: 4, Seed: 5, Parallelism: 1,
		Federation: Federation{Quorum: 1,
			Availability: &TraceConfig{Kind: TraceDiurnal, Base: 0.4, Amp: 0.4, Period: 4},
			Recorder:     trace.New(&sink, trace.Config{Clock: trace.StepClock(1)})},
	}
	sim, err := NewSimulator(cfg, fakeMethod(&fakeTrainer{}), clients)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	if _, _, err := sim.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	cfg.Recorder.Flush()
	events, err := trace.ReadAll(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	drops := 0
	for _, e := range events {
		if e.Kind == trace.KindClientDrop {
			drops++
			if e.Reason != trace.DropTrace {
				t.Fatalf("availability drop misattributed: %+v", e)
			}
		}
	}
	if drops == 0 {
		t.Fatal("diurnal availability at base 0.4 produced no drops (seed-dependent; pick another seed)")
	}
}

// TestTraceResumeEvent pins the durability marks: checkpoints emit
// checkpoint_save, and a resumed run opens with a resume event at the
// checkpoint round.
func TestTraceResumeEvent(t *testing.T) {
	clients := testClients(t, 6)
	base := SimConfig{Rounds: 4, ClientsPerRound: 2, Seed: 3, Parallelism: 1}

	var mid *SimState
	cfg := base
	cfg.CheckpointEvery = 2
	cfg.OnCheckpoint = func(st *SimState) error {
		if st.Round == 2 {
			mid = st
		}
		return nil
	}
	var sink1 bytes.Buffer
	cfg.Recorder = trace.New(&sink1, trace.Config{Clock: trace.StepClock(1)})
	sim, err := NewSimulator(cfg, fakeMethod(&fakeTrainer{}), clients)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sim.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	cfg.Recorder.Flush()
	events, err := trace.ReadAll(bytes.NewReader(sink1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	saves := 0
	for _, e := range events {
		if e.Kind == trace.KindCheckpointSave {
			saves++
		}
	}
	if saves != 2 { // stride 2 over 4 rounds: after rounds 2 and 4
		t.Fatalf("checkpoint_save count = %d, want 2", saves)
	}
	if mid == nil {
		t.Fatal("no mid-run checkpoint captured")
	}

	var sink2 bytes.Buffer
	resumed := base
	resumed.ResumeFrom = mid
	resumed.Recorder = trace.New(&sink2, trace.Config{Clock: trace.StepClock(1)})
	sim, err = NewSimulator(resumed, fakeMethod(&fakeTrainer{}), clients)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sim.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	resumed.Recorder.Flush()
	events, err = trace.ReadAll(bytes.NewReader(sink2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || events[0].Kind != trace.KindResume || events[0].Round != 2 {
		t.Fatalf("resumed trace should open with a resume event at round 2, got %+v", events[:min(len(events), 1)])
	}
	rounds := 0
	for _, e := range events {
		if e.Kind == trace.KindRoundStart {
			rounds++
		}
	}
	if rounds != 2 {
		t.Fatalf("resumed trace holds %d round spans, want 2", rounds)
	}
}

// TestTraceCheckpointSaveFollowsDurability pins where checkpoint_save sits
// in the stream: right after its round for a hook that saved inline, and
// for a deferring hook where the loop learns the outcome — at the next due
// checkpoint's wait, or at the drain when Run ends — always on the loop
// goroutine (the injected single-goroutine clock would race otherwise), at
// the same bytes every run. The save carries no Dur: the time the loop was
// blocked is phase_checkpoint_wait's, which a round has when it waited on an
// earlier write (or, the final round, drained its own).
func TestTraceCheckpointSaveFollowsDurability(t *testing.T) {
	clients := testClients(t, 6)
	run := func(hook func(*SimState) error) (string, []byte) {
		t.Helper()
		var sink bytes.Buffer
		cfg := SimConfig{Rounds: 3, ClientsPerRound: 2, Seed: 3, Parallelism: 1,
			Federation: Federation{OnCheckpoint: hook, Recorder: trace.New(&sink, trace.Config{Clock: trace.StepClock(1)})}}
		sim, err := NewSimulator(cfg, fakeMethod(&fakeTrainer{}), clients)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := sim.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		cfg.Recorder.Flush()
		events, err := trace.ReadAll(bytes.NewReader(sink.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var order []string
		for _, e := range events {
			switch e.Kind {
			case trace.KindRoundEnd:
				order = append(order, fmt.Sprintf("end%d", e.Round))
			case trace.KindCheckpointSave:
				order = append(order, fmt.Sprintf("save%d", e.Round))
				if e.Dur != 0 {
					t.Errorf("checkpoint_save carries a Dur: %+v", e)
				}
			case trace.KindPhaseCheckpointWait:
				if e.Dur > 0 {
					order = append(order, fmt.Sprintf("wait%d", e.Round))
				}
			}
		}
		return strings.Join(order, " "), sink.Bytes()
	}
	if got, _ := run(func(*SimState) error { return nil }); got != "end0 save0 end1 save1 end2 save2" {
		t.Errorf("inline hook: %s", got)
	}
	got, bytes1 := run((&behindHook{}).hook)
	if got != "end0 end1 save0 wait1 end2 save1 save2 wait2" {
		t.Errorf("deferring hook: %s", got)
	}
	if _, bytes2 := run((&behindHook{delay: 2 * time.Millisecond}).hook); !bytes.Equal(bytes1, bytes2) {
		t.Errorf("trace bytes depend on how long the write took:\n%s\nvs\n%s", bytes1, bytes2)
	}
}
