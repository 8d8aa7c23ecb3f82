package lane

import "testing"

// TestDepthGaugeFollowsProduction pins the own-lane depth gauge to the
// production pipeline: pending batches and proposed cars raise it, and
// only the commit retires it — certification alone leaves the car's
// client-visible backlog in place (under overload the queue lives in
// certified cars awaiting a cut).
func TestDepthGaugeFollowsProduction(t *testing.T) {
	states := newStates(t, 4, false)
	s := states[0]
	if s.Depth() != 0 {
		t.Fatalf("fresh lane depth = %d", s.Depth())
	}

	// First batch starts a car immediately: one outstanding, none pending.
	p1 := s.AddBatch(batch(0, 1))
	if p1 == nil || s.Depth() != 1 {
		t.Fatalf("after first batch: proposal=%v depth=%d, want 1", p1 != nil, s.Depth())
	}
	// Second batch queues behind the uncertified car (one car in flight).
	if p := s.AddBatch(batch(0, 2)); p != nil || s.Depth() != 2 {
		t.Fatalf("after second batch: proposal=%v depth=%d, want 2", p != nil, s.Depth())
	}

	// Completing car 1's PoA starts car 2: pending drains, but both cars
	// remain uncommitted — certification does not lower the gauge.
	for i := 1; i < 4; i++ {
		votes, err := states[i].OnProposal(p1)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range votes {
			if _, _, err := s.OnVote(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.Depth() != 2 {
		t.Fatalf("after PoA: depth = %d, want 2 (cars 1 and 2 uncommitted)", s.Depth())
	}

	// A commit through car 2 retires the whole pipeline (commit subsumes
	// certification — the restart-recovery path).
	s.OnCommitted(0, 2, s.OptimisticTip(0).Digest)
	if s.Depth() != 0 {
		t.Fatalf("after commit: depth = %d, want 0", s.Depth())
	}
}
