package fetch

import (
	"testing"
	"time"

	"repro/internal/lane"
	"repro/internal/types"
)

func chain(laneID types.NodeID, n int) (*lane.Store, []*types.Proposal) {
	store := lane.NewStore()
	props := make([]*types.Proposal, n)
	var parent types.Digest
	for pos := 1; pos <= n; pos++ {
		p := &types.Proposal{
			Lane:     laneID,
			Position: types.Pos(pos),
			Parent:   parent,
			Batch:    types.NewSyntheticBatch(laneID, uint64(pos), 10, 5120, 0, 0),
		}
		store.Put(p)
		parent = p.Digest()
		props[pos-1] = p
	}
	return store, props
}

// late is a time at which no lane counts as live any more (a fresh
// manager treats the first RetryAfter of its life as in flight).
const late = time.Minute

func TestWantDedupAndTargets(t *testing.T) {
	m := NewManager(Config{Self: 0})
	_, props := chain(1, 5)
	tip := props[4]
	em := m.Want(late, 1, 1, 5, tip.Digest(), []types.NodeID{0, 2, 3})
	if em == nil {
		t.Fatal("first want must emit")
	}
	if em.To == 0 {
		t.Fatal("self must be filtered from targets")
	}
	if em.Msg.From != 1 || em.Msg.To != 5 || em.Msg.TipDigest != tip.Digest() {
		t.Fatalf("request = %+v", em.Msg)
	}
	if dup := m.Want(late, 1, 2, 5, tip.Digest(), []types.NodeID{2}); dup != nil {
		t.Fatal("a range the lane's stream covers must not emit")
	}
	if m.Outstanding() != 1 {
		t.Fatalf("outstanding = %d", m.Outstanding())
	}
}

func TestWantRejectsSelfOnlyTargets(t *testing.T) {
	m := NewManager(Config{Self: 0})
	if em := m.Want(late, 1, 1, 3, types.Digest{1}, []types.NodeID{0, 0}); em != nil {
		t.Fatal("self-only targets must not emit")
	}
}

// TestOneStreamPerLane: a second range for a lane never opens a second
// request. One that adjoins the stream from above extends it — the next
// request names the new top — and anything else waits.
func TestOneStreamPerLane(t *testing.T) {
	_, props := chain(1, 12)
	m := NewManager(Config{Self: 0})
	if m.Want(late, 1, 1, 6, props[5].Digest(), []types.NodeID{2}) == nil {
		t.Fatal("first range must emit")
	}
	if em := m.Want(late, 1, 3, 10, props[9].Digest(), []types.NodeID{3}); em != nil {
		t.Fatal("an overlapping range must not open a second request")
	}
	if em := m.Want(late, 1, 12, 12, props[11].Digest(), []types.NodeID{3}); em != nil {
		t.Fatal("a disjoint range must wait for the stream to finish")
	}
	pend := m.Pending()
	if len(pend) != 1 || pend[0].From != 1 || pend[0].To != 10 || pend[0].TipDigest != props[9].Digest() {
		t.Fatalf("pending = %+v, want one stream [1,10]", pend)
	}
	// The first request named [1,6]; once it is answered in full the
	// follow-up asks the extension's targets for the rest.
	next, err := m.OnReply(late, 2, &types.SyncReply{Lane: 1, Proposals: props[:6]})
	if err != nil || next == nil {
		t.Fatalf("next=%+v err=%v, want a follow-up", next, err)
	}
	if next.To != 3 || next.Msg.From != 7 || next.Msg.To != 10 {
		t.Fatalf("follow-up = to %s %+v, want [7,10] from replica 3", next.To, next.Msg)
	}
}

func TestServeAndReplyRoundTrip(t *testing.T) {
	store, props := chain(1, 6)
	tip := props[5]
	m := NewManager(Config{Self: 0})
	em := m.Want(late, 1, 2, 6, tip.Digest(), []types.NodeID{2})
	reps := Serve(store, em.Msg)
	if len(reps) != 1 || len(reps[0].Proposals) != 5 || !reps[0].Complete {
		t.Fatalf("serve = %+v", reps)
	}
	next, err := m.OnReply(late, 2, reps[0])
	if err != nil || next != nil {
		t.Fatalf("next=%+v err=%v, want a clean completion", next, err)
	}
	if m.Outstanding() != 0 {
		t.Fatal("request must clear on satisfaction")
	}
}

func TestServeChunksLargeHistoriesFIFO(t *testing.T) {
	// Payloads big enough that each chunk holds a few proposals.
	big, bigProps := bigChain(1, 40, 1<<20)
	tip := bigProps[39]
	reps := Serve(big, &types.SyncRequest{Lane: 1, From: 1, To: 40, TipDigest: tip.Digest(), Requester: 0})
	if len(reps) < 3 {
		t.Fatalf("40 MiB history must chunk, got %d replies", len(reps))
	}
	// FIFO oldest-first: chunk k's first position follows chunk k-1's
	// last; the served prefix is bounded by the per-request window, so the
	// final chunk is not Complete (the requester chases the remainder).
	next := types.Pos(1)
	var served int
	for i, rep := range reps {
		for _, p := range rep.Proposals {
			if p.Position != next {
				t.Fatalf("chunk %d out of order: pos %d want %d", i, p.Position, next)
			}
			next++
			served += p.WireSize()
		}
		if rep.Complete {
			t.Fatalf("windowed stream chunk %d must not claim completeness", i)
		}
	}
	if served > ServeWindowBytes+ServeChunkBytes {
		t.Fatalf("served %d bytes, window is %d", served, ServeWindowBytes)
	}
	if next < 2 {
		t.Fatal("window served nothing")
	}
	// A small history is served completely.
	small, smallProps := chain(2, 5)
	sr := Serve(small, &types.SyncRequest{Lane: 2, From: 1, To: 5, TipDigest: smallProps[4].Digest()})
	if len(sr) != 1 || !sr[0].Complete {
		t.Fatalf("small serve = %+v", sr)
	}
}

// bigChain builds a lane of n cars of carBytes each.
func bigChain(laneID types.NodeID, n int, carBytes uint64) (*lane.Store, []*types.Proposal) {
	store := lane.NewStore()
	props := make([]*types.Proposal, 0, n)
	var parent types.Digest
	for pos := 1; pos <= n; pos++ {
		p := &types.Proposal{
			Lane: laneID, Position: types.Pos(pos), Parent: parent,
			Batch: types.NewSyntheticBatch(laneID, uint64(pos), 2000, carBytes, 0, 0),
		}
		store.Put(p)
		parent = p.Digest()
		props = append(props, p)
	}
	return store, props
}

// TestWindowedReplyAdvancesRequest: the responder serves a range one
// window at a time, as several chunks. Every chunk advances the stream's
// cursor; only the window's last one — which the requester recognizes by
// counting the same bytes the responder did — triggers the follow-up.
// A follow-up per chunk makes the responder start a fresh window while
// the previous one is still streaming: the same cars, twice.
func TestWindowedReplyAdvancesRequest(t *testing.T) {
	store, props := bigChain(1, 40, 3<<20)
	tip := props[39]
	m := NewManager(Config{Self: 0})
	em := m.Want(late, 1, 1, 40, tip.Digest(), []types.NodeID{2})
	window := Serve(store, em.Msg)
	if len(window) != 4 {
		t.Fatalf("want a four-chunk window, got %d chunks", len(window))
	}
	now, followUps := late, 0
	var next *Emit
	for i, chunk := range window {
		now += time.Millisecond
		nx, err := m.OnReply(now, 2, chunk)
		if err != nil {
			t.Fatalf("chunk %d rejected: %v", i, err)
		}
		if nx != nil {
			followUps++
			next = nx
			if i != len(window)-1 {
				t.Fatalf("follow-up on chunk %d of %d", i+1, len(window))
			}
		}
	}
	if followUps != 1 {
		t.Fatalf("a four-chunk window yielded %d follow-up requests, want exactly 1", followUps)
	}
	top := window[3].Proposals[len(window[3].Proposals)-1]
	if next.Msg.From != top.Position+1 || next.Msg.To != 40 || next.Msg.TipDigest != tip.Digest() {
		t.Fatalf("follow-up = %+v, want [%d,40] at the tip", next.Msg, top.Position+1)
	}
	if m.Outstanding() != 1 {
		t.Fatal("request must remain outstanding across windows")
	}
	// The windows that follow complete it, with no position served twice.
	served := len(props[:top.Position])
	for next != nil {
		em, next = next, nil
		for _, chunk := range Serve(store, em.Msg) {
			served += len(chunk.Proposals)
			nx, err := m.OnReply(now, 2, chunk)
			if err != nil {
				t.Fatalf("chunk rejected: %v", err)
			}
			if nx != nil {
				next = nx
			}
		}
	}
	if m.Outstanding() != 0 || served != 40 {
		t.Fatalf("outstanding=%d served=%d, want 0 and 40", m.Outstanding(), served)
	}
}

// TestNoRetryWhileStreaming: the silence clock runs from the last reply,
// not from the last send — a stream whose chunks keep arriving is never
// re-requested, however long the whole transfer takes — and silence
// re-issues the rest of the range to the next target.
func TestNoRetryWhileStreaming(t *testing.T) {
	_, props := chain(1, 30)
	m := NewManager(Config{Self: 0, RetryAfter: 100 * time.Millisecond})
	if m.Want(late, 1, 1, 30, props[29].Digest(), []types.NodeID{2, 3}) == nil {
		t.Fatal("want must emit")
	}
	now := late
	for i := 0; i < 10; i++ { // one car every 90ms: 900ms in all
		now += 90 * time.Millisecond
		if ems, _ := m.Tick(now); len(ems) != 0 {
			t.Fatalf("retry at +%v while chunks keep arriving", now-late)
		}
		if _, err := m.OnReply(now, 2, &types.SyncReply{Lane: 1, Proposals: props[i : i+1]}); err != nil {
			t.Fatal(err)
		}
	}
	// The request was 900ms old when its last reply arrived: on a path
	// that slow, twice that much silence is loss, not less.
	if ems, _ := m.Tick(now + time.Second); len(ems) != 0 {
		t.Fatal("retry before the stream has been silent for long enough")
	}
	ems, _ := m.Tick(now + 2*time.Second)
	if len(ems) != 1 || ems[0].To != 3 {
		t.Fatalf("silence must re-issue to the next target, got %+v", ems)
	}
	if ems[0].Msg.From != 11 || ems[0].Msg.To != 30 {
		t.Fatalf("re-issue = %+v, want the undelivered rest [11,30]", ems[0].Msg)
	}
}

// TestPatienceFollowsReplyAge: replies that took long to arrive (they
// queued behind the requester's own ingest backlog) stretch the silence
// threshold for the episode; a new episode starts from RetryAfter again.
func TestPatienceFollowsReplyAge(t *testing.T) {
	_, props := chain(1, 4)
	m := NewManager(Config{Self: 0, RetryAfter: 100 * time.Millisecond})
	m.Want(late, 1, 1, 4, props[3].Digest(), []types.NodeID{2, 3})
	// First reply a full second after the request.
	if _, err := m.OnReply(late+time.Second, 2, &types.SyncReply{Lane: 1, Proposals: props[:2]}); err != nil {
		t.Fatal(err)
	}
	if ems, _ := m.Tick(late + 2500*time.Millisecond); len(ems) != 0 {
		t.Fatal("retry after 1.5s of silence on a path whose replies take 1s")
	}
	if ems, _ := m.Tick(late + 3100*time.Millisecond); len(ems) != 1 {
		t.Fatal("2.1s of silence must re-issue")
	}
	if _, err := m.OnReply(late+3200*time.Millisecond, 3, &types.SyncReply{Lane: 1, Proposals: props[2:]}); err != nil {
		t.Fatal(err)
	}
	if m.Outstanding() != 0 {
		t.Fatal("stream must complete")
	}
	m.Want(2*late, 1, 1, 4, props[3].Digest(), []types.NodeID{2, 3})
	if ems, _ := m.Tick(2*late + 150*time.Millisecond); len(ems) != 1 {
		t.Fatal("a new episode must start from RetryAfter")
	}
}

// TestInFlightAboveLiveFrontier: a position above what a lane's live
// broadcast has delivered is on its way while the lane keeps delivering,
// and is not asked for; a position the live stream has passed is lost and
// asked for at once; silence makes everything above the frontier lost.
func TestInFlightAboveLiveFrontier(t *testing.T) {
	m := NewManager(Config{Self: 0})
	m.NoteLive(late, 1, 10)
	now := late + 50*time.Millisecond
	if em := m.Want(now, 1, 5, 14, types.Digest{1}, []types.NodeID{2}); em != nil {
		t.Fatal("a range topping out above the live frontier must wait")
	}
	if em := m.WantTip(now, 1, 12, types.Digest{2}, []types.NodeID{2}, 0); em != nil {
		t.Fatal("a tip above the live frontier must wait")
	}
	if em := m.Want(now, 1, 5, 9, types.Digest{3}, []types.NodeID{2}); em == nil {
		t.Fatal("a hole beneath the live frontier is loss: fetch at once")
	}
	if em := m.WantTip(now, 2, 3, types.Digest{4}, []types.NodeID{3}, now); em != nil {
		t.Fatal("a tip just announced on a quiet lane is in flight")
	}
	// Replaying old cars is not delivering: the frontier must advance.
	now += time.Second
	m.NoteLive(now, 1, 10)
	m.NoteLive(now, 1, 7)
	if em := m.WantTip(now, 1, 12, types.Digest{2}, []types.NodeID{2}, 0); em == nil {
		t.Fatal("a silent lane's tip is lost")
	}
	if em := m.WantTip(now, 2, 3, types.Digest{4}, []types.NodeID{3}, late); em == nil {
		t.Fatal("a tip that never came is lost")
	}
}

// TestPointRequestNeverBecomesRange: a later range ending on a requested
// tip replaces the point request under the budget instead of broadening
// it, and a tip inside a stream's range is not requested separately.
func TestPointRequestNeverBecomesRange(t *testing.T) {
	_, props := chain(1, 9)
	tip := props[8]
	m := NewManager(Config{Self: 0, MaxOutstandingPositions: 8})
	if m.WantTip(late, 1, 9, tip.Digest(), []types.NodeID{2}, 0) == nil {
		t.Fatal("point request must emit")
	}
	if em := m.Want(late, 1, 1, 9, tip.Digest(), []types.NodeID{2}); em != nil {
		t.Fatal("a nine-position range must not ride a point request past a budget of eight")
	}
	if pend := m.Pending(); len(pend) != 1 || pend[0].From != 9 {
		t.Fatalf("pending = %+v, want the point request untouched", pend)
	}
	if em := m.Want(late, 1, 2, 9, tip.Digest(), []types.NodeID{2}); em == nil {
		t.Fatal("a range within the budget must emit")
	}
	if pend := m.Pending(); len(pend) != 1 || pend[0].From != 2 || pend[0].To != 9 {
		t.Fatalf("pending = %+v, want the range alone", pend)
	}
	if em := m.WantTip(late, 1, 5, props[4].Digest(), []types.NodeID{2}, 0); em != nil {
		t.Fatal("a tip inside the stream's range must not be requested separately")
	}
}

func TestOnReplyValidatesChains(t *testing.T) {
	store, props := chain(1, 4)
	tip := props[3]
	fresh := func() *Manager {
		m := NewManager(Config{Self: 0})
		m.Want(late, 1, 1, 4, tip.Digest(), []types.NodeID{2})
		return m
	}
	good := Serve(store, &types.SyncRequest{Lane: 1, From: 1, To: 4, TipDigest: tip.Digest()})[0]

	// Broken link.
	broken := &types.SyncReply{Lane: 1, Proposals: append([]*types.Proposal{}, good.Proposals...)}
	broken.Proposals[1] = &types.Proposal{Lane: 1, Position: 2, Parent: types.Digest{9}, Batch: props[1].Batch}
	if _, err := fresh().OnReply(0, 2, broken); err == nil {
		t.Fatal("broken chain accepted")
	}
	// Wrong chain: a valid chain that does not link onto what the stream
	// delivered before is treated as unsolicited (ingestable) and leaves
	// the request where it was.
	otherStore := lane.NewStore()
	var parent types.Digest
	var otherProps []*types.Proposal
	for pos := 1; pos <= 4; pos++ {
		p := &types.Proposal{
			Lane: 1, Position: types.Pos(pos), Parent: parent,
			Batch: types.NewSyntheticBatch(1, uint64(100+pos), 10, 5120, 0, 0),
		}
		otherStore.Put(p)
		parent = p.Digest()
		otherProps = append(otherProps, p)
	}
	mgr := fresh()
	if _, err := mgr.OnReply(0, 2, &types.SyncReply{Lane: 1, Proposals: good.Proposals[:2]}); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.OnReply(0, 2, &types.SyncReply{Lane: 1, Proposals: otherProps[2:]}); err != ErrUnsolicited {
		t.Fatalf("unlinked chain: got %v, want ErrUnsolicited", err)
	}
	if pend := mgr.Pending(); len(pend) != 1 || pend[0].From != 3 {
		t.Fatalf("unlinked reply must leave the stream at its cursor, pending = %+v", pend)
	}
	// Cross-lane.
	cross := &types.SyncReply{Lane: 2, Proposals: good.Proposals}
	if _, err := fresh().OnReply(0, 2, cross); err == nil {
		t.Fatal("cross-lane reply accepted")
	}
	// Empty.
	if _, err := fresh().OnReply(0, 2, &types.SyncReply{Lane: 1}); err == nil {
		t.Fatal("empty reply accepted")
	}
}

func TestUnsolicitedChainValidReply(t *testing.T) {
	st, props := chain(1, 3)
	tip := props[2]
	m := NewManager(Config{Self: 0})
	rep := Serve(st, &types.SyncRequest{Lane: 1, From: 1, To: 3, TipDigest: tip.Digest()})[0]
	res, err := m.OnReply(0, 2, rep)
	if err != ErrUnsolicited || res != nil {
		t.Fatalf("got (%v, %v), want ErrUnsolicited", res, err)
	}
}

func TestPartialReplyChasesRemainder(t *testing.T) {
	_, props := chain(1, 6)
	tip := props[5]
	m := NewManager(Config{Self: 0})
	m.Want(late, 1, 1, 6, tip.Digest(), []types.NodeID{2, 3})
	// Responder only has positions 4-6.
	partial := lane.NewStore()
	for _, p := range props[3:] {
		partial.Put(p)
	}
	rep := Serve(partial, &types.SyncRequest{Lane: 1, From: 1, To: 6, TipDigest: tip.Digest()})[0]
	if rep.Complete {
		t.Fatal("partial serve must not claim completeness")
	}
	next, err := m.OnReply(late, 2, rep)
	if err != nil {
		t.Fatalf("partial reply rejected: %v", err)
	}
	if next == nil {
		t.Fatal("remainder fetch expected")
	}
	if next.To != 3 {
		t.Fatalf("remainder must go to the next target, got %s", next.To)
	}
	if next.Msg.From != 1 || next.Msg.To != 3 || next.Msg.TipDigest != props[3].Parent {
		t.Fatalf("remainder = %+v", next.Msg)
	}
	if m.Outstanding() != 1 {
		t.Fatal("remainder must be tracked")
	}
}

// TestTickRotatesThenAbandons: silence moves a request to its next
// target; one that has tried every target without a reply is dropped (a
// consumer that still needs the data asks again).
func TestTickRotatesThenAbandons(t *testing.T) {
	m := NewManager(Config{Self: 0, RetryAfter: 10 * time.Millisecond})
	m.WantTip(late, 1, 5, types.Digest{1}, []types.NodeID{2, 3}, 0)

	ems, _ := m.Tick(late + 20*time.Millisecond)
	if len(ems) != 1 {
		t.Fatalf("first retry: %d emits", len(ems))
	}
	if ems[0].To != 3 {
		t.Fatalf("retry must rotate targets, got %s", ems[0].To)
	}
	if ems, _ = m.Tick(late + 25*time.Millisecond); len(ems) != 0 {
		t.Fatal("retry before deadline")
	}
	ems, exhausted := m.Tick(late + 40*time.Millisecond) // every target tried: dropped
	if len(ems) != 0 || m.Outstanding() != 0 {
		t.Fatalf("fetch not abandoned: emits=%d outstanding=%d", len(ems), m.Outstanding())
	}
	if len(exhausted) != 0 {
		t.Fatalf("a dropped point request is not an exhausted stream: %v", exhausted)
	}

	// A catch-up stream that every target was silent on is reported: the
	// node takes it as the sign that the range lies beneath its peers'
	// truncation line.
	m.Want(2*late, 4, 1, 9, types.Digest{2}, []types.NodeID{2, 3})
	if _, exhausted = m.Tick(2*late + 20*time.Millisecond); len(exhausted) != 0 {
		t.Fatalf("stream reported exhausted with a target untried: %v", exhausted)
	}
	if _, exhausted = m.Tick(2*late + 40*time.Millisecond); len(exhausted) != 1 || exhausted[0] != 4 || m.Outstanding() != 0 {
		t.Fatalf("silent rotation over every target: exhausted=%v outstanding=%d", exhausted, m.Outstanding())
	}
}

func TestBudgetBoundsBulkFetches(t *testing.T) {
	m := NewManager(Config{Self: 0, MaxOutstandingPositions: 10})
	if em := m.Want(late, 1, 1, 8, types.Digest{1}, []types.NodeID{2}); em == nil {
		t.Fatal("within budget must emit")
	}
	if em := m.Want(late, 2, 1, 8, types.Digest{2}, []types.NodeID{2}); em != nil {
		t.Fatal("over budget must defer")
	}
	if em := m.Want(late, 1, 9, 12, types.Digest{4}, []types.NodeID{2}); em != nil || m.Pending()[0].To != 8 {
		t.Fatal("over budget must not extend")
	}
	// Point requests bypass the budget (consensus voting).
	if em := m.WantTip(late, 2, 9, types.Digest{3}, []types.NodeID{2}, 0); em == nil {
		t.Fatal("point request must bypass the budget")
	}
}

func TestSettleDropsHeldTips(t *testing.T) {
	store, props := chain(1, 5)
	m := NewManager(Config{Self: 0})
	m.WantTip(late, 1, 5, props[4].Digest(), []types.NodeID{2}, 0)
	m.WantTip(late, 1, 7, types.Digest{7}, []types.NodeID{2}, 0)
	m.Settle(1, store.Has)
	if pend := m.Pending(); len(pend) != 1 || pend[0].To != 7 {
		t.Fatalf("pending = %+v, want only the absent tip", pend)
	}
}

// TestRebaseShrinksSpanningFetch pins the snapshot-install contract:
// fetches wholly at or below the frontier are dropped, a stream spanning
// it is narrowed to the upper remainder (freeing outstanding-position
// budget) and re-emitted immediately with the narrowed range.
func TestRebaseShrinksSpanningFetch(t *testing.T) {
	m := NewManager(Config{Self: 0, MaxOutstandingPositions: 250})
	_, propsA := chain(1, 200)
	_, propsB := chain(2, 100)
	tipA, tipB := propsA[199], propsB[99]
	if m.Want(late, 1, 1, 200, tipA.Digest(), []types.NodeID{2}) == nil {
		t.Fatal("spanning fetch must start")
	}
	if m.Want(late, 2, 1, 100, tipB.Digest(), []types.NodeID{2}) != nil {
		t.Fatal("second bulk fetch must be over budget before rebase")
	}
	ems := m.Rebase(late+time.Second, 1, 150)
	if len(ems) != 1 {
		t.Fatalf("want 1 re-emit, got %d", len(ems))
	}
	if ems[0].Msg.From != 151 || ems[0].Msg.To != 200 {
		t.Fatalf("rebased range = [%d,%d], want [151,200]", ems[0].Msg.From, ems[0].Msg.To)
	}
	// Budget released: the lane-2 bulk fetch fits now.
	if m.Want(late+time.Second, 2, 1, 100, tipB.Digest(), []types.NodeID{2}) == nil {
		t.Fatal("rebase must release outstanding-position budget")
	}
	// A fetch wholly below the frontier is dropped outright.
	m.Rebase(late+2*time.Second, 2, 100)
	if m.Outstanding() != 1 {
		t.Fatalf("want only the rebased lane-1 fetch outstanding, got %d", m.Outstanding())
	}
}
