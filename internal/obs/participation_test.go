package obs

import "testing"

func TestParticipationLRUBound(t *testing.T) {
	r := newRegistry(roundWindow, 3)
	r.AddParticipation([]int{1, 2, 3})
	r.AddParticipation([]int{1, 2, 3})
	snap := r.Snapshot()
	if len(snap.Participation) != 3 || snap.Participation["2"] != 2 {
		t.Fatalf("participation = %v", snap.Participation)
	}
	// Client 4 arrives: least-recently-seen (1, touched first within each
	// call) is evicted; survivors keep their counts.
	r.AddParticipation([]int{4})
	snap = r.Snapshot()
	if len(snap.Participation) != 3 {
		t.Fatalf("table exceeded bound: %v", snap.Participation)
	}
	if _, ok := snap.Participation["1"]; ok {
		t.Fatalf("expected client 1 evicted: %v", snap.Participation)
	}
	if snap.Participation["3"] != 2 || snap.Participation["4"] != 1 {
		t.Fatalf("counts wrong after eviction: %v", snap.Participation)
	}
	// Touching a resident client refreshes its recency.
	r.AddParticipation([]int{2})
	r.AddParticipation([]int{5})
	snap = r.Snapshot()
	if _, ok := snap.Participation["3"]; ok {
		t.Fatalf("expected client 3 evicted (2 was refreshed): %v", snap.Participation)
	}
	if snap.Participation["2"] != 3 {
		t.Fatalf("refreshed client lost its count: %v", snap.Participation)
	}
}

func TestParticipationDefaultBound(t *testing.T) {
	r := NewRegistry()
	ids := make([]int, 5000)
	for i := range ids {
		ids[i] = i
	}
	r.AddParticipation(ids)
	snap := r.Snapshot()
	if len(snap.Participation) != 4096 {
		t.Fatalf("default bound = %d, want 4096", len(snap.Participation))
	}
	// The oldest (lowest) ids were evicted, the newest retained.
	if _, ok := snap.Participation["0"]; ok {
		t.Fatal("client 0 should have been evicted")
	}
	if snap.Participation["4999"] != 1 {
		t.Fatal("newest client missing")
	}
}
