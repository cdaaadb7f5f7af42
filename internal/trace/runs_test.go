package trace

import (
	"reflect"
	"testing"
)

// round is one federation round's events, phases among them where the
// round core emits them, with loss telling executions of the same round
// apart (and the phases' Dur, with it).
func round(cell string, r int, loss float64) []Event {
	phase := func(k Kind) Event {
		return Event{Kind: k, Runtime: "sim", Cell: cell, Round: r, Client: -1, Dur: int64(loss)}
	}
	return []Event{
		{Kind: KindRoundStart, Runtime: "sim", Cell: cell, Round: r, Client: -1, N: 1},
		{Kind: KindClientDispatch, Runtime: "sim", Cell: cell, Round: r, Client: 0},
		phase(KindPhaseDraw),
		{Kind: KindClientUpdate, Runtime: "sim", Cell: cell, Round: r, Client: 0, Loss: loss},
		phase(KindPhaseCollect),
		{Kind: KindRoundEnd, Runtime: "sim", Cell: cell, Round: r, Client: -1, N: 1, Loss: loss},
		phase(KindPhasePlanes), phase(KindPhaseHooks), phase(KindPhaseCheckpointWait),
	}
}

// TestPhasesInTableOrder: Kind.Phase indexes trace.Phases and nothing else.
func TestPhasesInTableOrder(t *testing.T) {
	for i, k := range Phases {
		if k.Phase() != i {
			t.Errorf("%s.Phase() = %d, want %d", k, k.Phase(), i)
		}
	}
	for _, k := range []Kind{KindRoundStart, KindRoundEnd, KindCheckpointSave, "phase_bogus"} {
		if k.Phase() != -1 {
			t.Errorf("%s.Phase() = %d, want -1", k, k.Phase())
		}
	}
}

func concat(parts ...[]Event) []Event {
	var out []Event
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// TestRunsSupersedeReexecutedRounds reads the kill+resume stream health's
// TestFoldRewindsReexecutedRounds folds: a killed run got past its
// checkpoint and tore round 4, a resume at round 2 re-executed rounds 2
// and 3, and a second append without a resume mark re-executed round 3.
// What stands is one uninterrupted run, plus the resume as written.
func TestRunsSupersedeReexecutedRounds(t *testing.T) {
	resume := Event{Kind: KindResume, Runtime: "sim", Round: 2, Client: -1}
	events := concat(round("", 0, 9), round("", 1, 9), round("", 2, 9), round("", 3, 9),
		[]Event{{Kind: KindRoundStart, Runtime: "sim", Round: 4, Client: -1, N: 1}}, // torn
		[]Event{resume}, round("", 2, 1), round("", 3, 1),
		round("", 3, 2), round("", 4, 2))
	want := concat(round("", 0, 9), round("", 1, 9), []Event{resume}, round("", 2, 1), round("", 3, 2), round("", 4, 2))
	runs := Runs(events)
	if len(runs) != 1 || runs[0].Cell != "" {
		t.Fatalf("Runs split one federation into %d runs", len(runs))
	}
	if !reflect.DeepEqual(runs[0].Events, want) {
		t.Errorf("standing events:\n got %+v\nwant %+v", runs[0].Events, want)
	}
	if again := Runs(runs[0].Events); !reflect.DeepEqual(again[0].Events, want) {
		t.Errorf("Runs of a run's own events changed them: %+v", again[0].Events)
	}
}

// TestRunsKeepMarksAsWritten: checkpoint_save, cell_start, cell_end and
// resume are not round-ordered, so a re-execution never supersedes them —
// and a write-behind save of an earlier round, marked after later rounds,
// does not shield those rounds from the re-execution either.
func TestRunsKeepMarksAsWritten(t *testing.T) {
	start := Event{Kind: KindCellStart, Runtime: "sweep", Cell: "a", Round: -1, Client: -1}
	save := Event{Kind: KindCheckpointSave, Runtime: "sim", Cell: "a", Round: 1, Client: -1}
	resume := Event{Kind: KindResume, Runtime: "sim", Cell: "a", Round: 2, Client: -1}
	end := Event{Kind: KindCellEnd, Runtime: "sweep", Cell: "a", Round: -1, Client: -1, Note: "ok"}
	events := concat([]Event{start}, round("a", 0, 9), round("a", 1, 9), round("a", 2, 9), []Event{save},
		round("a", 3, 9), []Event{start, resume}, round("a", 2, 1), round("a", 3, 1), []Event{end})
	want := concat([]Event{start}, round("a", 0, 9), round("a", 1, 9), []Event{save, start, resume},
		round("a", 2, 1), round("a", 3, 1), []Event{end})
	if got := Runs(events); len(got) != 1 || !reflect.DeepEqual(got[0].Events, want) {
		t.Errorf("Runs = %+v\nwant one run of %+v", got, want)
	}
}

// TestRunsSplitInterleavedCells: cells that ran concurrently into one
// file come apart, ordered by key, each as it would read alone.
func TestRunsSplitInterleavedCells(t *testing.T) {
	var events []Event
	for r := 0; r < 3; r++ {
		events = concat(events, round("b", r, 1), round("", r, 2), round("a", r, 3))
	}
	events = concat(events, []Event{{Kind: KindResume, Runtime: "sim", Cell: "a", Round: 1, Client: -1}}, round("a", 1, 4))
	runs := Runs(events)
	var cells []string
	for _, r := range runs {
		cells = append(cells, r.Cell)
	}
	if want := []string{"", "a", "b"}; !reflect.DeepEqual(cells, want) {
		t.Fatalf("run cells = %q, want %q", cells, want)
	}
	for _, r := range runs {
		var alone []Event
		for _, e := range events {
			if e.Cell == r.Cell {
				alone = append(alone, e)
			}
		}
		if got := Runs(alone); len(got) != 1 || !reflect.DeepEqual(got[0], r) {
			t.Errorf("cell %q interleaved reads %+v, alone %+v", r.Cell, r, got)
		}
	}
	if n, want := len(runs[1].Events), 2*len(round("a", 0, 0))+1; n != want {
		t.Errorf("cell a keeps %d events, want rounds 0 and 1 and the resume (%d)", n, want)
	}
}
