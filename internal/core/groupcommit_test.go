package core_test

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/runtime"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/workload"
)

// recordingCtx captures sends for assertions.
type recordingCtx struct {
	nopCtx
	sends []types.Message
}

func (c *recordingCtx) Send(_ types.NodeID, m types.Message) { c.sends = append(c.sends, m) }
func (c *recordingCtx) Broadcast(m types.Message)            { c.sends = append(c.sends, m) }

// syncTrackingJournal wraps a journal and records the interleaving of
// appended records, Sync barriers and the releases that follow.
type syncTrackingJournal struct {
	core.Journal
	appends int
	syncs   int
	// appendsAtSync snapshots how many records each Sync covered.
	appendsAtSync []int
}

func (j *syncTrackingJournal) OwnProposal(p *types.Proposal) { j.appends++; j.Journal.OwnProposal(p) }
func (j *syncTrackingJournal) LaneVote(v *types.Vote)        { j.appends++; j.Journal.LaneVote(v) }
func (j *syncTrackingJournal) PrepVote(v *types.PrepVote)    { j.appends++; j.Journal.PrepVote(v) }
func (j *syncTrackingJournal) Sync() error {
	j.syncs++
	j.appendsAtSync = append(j.appendsAtSync, j.appends)
	return j.Journal.Sync()
}

func groupCommitNode(t *testing.T, j core.Journal) *core.Node {
	t.Helper()
	return core.NewNode(core.Config{
		Committee:      types.NewCommittee(4),
		Self:           1,
		Suite:          crypto.NewNopSuite(4),
		FastPath:       true,
		OptimisticTips: true,
		Journal:        j,
		GroupCommit:    true,
	})
}

// TestGroupCommitUnderSimulator: the simulator runs the Flusher barrier
// after every event, as the real runtime does after every burst, so a
// group-commit cluster — every send gated behind a journal sync — commits
// under it too.
func TestGroupCommitUnderSimulator(t *testing.T) {
	c := newClusterWith(t, func(o *clusterOpts) { o.fastPath = true; o.groupCommit = true })
	workload.Install(c.engine, c.ids, workload.Config{TotalRate: 4000, Start: 0, End: 3 * time.Second})
	c.engine.Run(6 * time.Second)
	if c.recorder.Total() < 10_000 {
		t.Fatalf("committed only %d txs under group commit", c.recorder.Total())
	}
	checkPrefixAgreement(t, c.logs.logs)
}

// TestGroupCommitGatesSendsUntilFlush pins the write-before-externalize
// ordering under group commit: an event that journals records and sends
// messages must emit nothing until Flush, and Flush must Sync the
// journal before releasing the sends.
func TestGroupCommitGatesSendsUntilFlush(t *testing.T) {
	j := &syncTrackingJournal{Journal: core.NewMemJournal()}
	nd := groupCommitNode(t, j)
	ctx := &recordingCtx{}

	nd.Init(ctx)
	nd.Flush(ctx)
	ctx.sends = nil

	// A sealed client batch produces an own-lane proposal: journaled and
	// broadcast — but the broadcast must wait for the barrier.
	nd.OnClientBatch(ctx, types.NewBatch(1, 1, []types.Transaction{{1, 2, 3}}, 0))
	if len(ctx.sends) != 0 {
		t.Fatalf("%d sends escaped before Flush", len(ctx.sends))
	}
	if j.appends == 0 {
		t.Fatal("no journal record appended for the proposal")
	}
	syncsBefore := j.syncs
	nd.Flush(ctx)
	if j.syncs != syncsBefore+1 {
		t.Fatalf("Flush ran %d syncs, want 1", j.syncs-syncsBefore)
	}
	if len(ctx.sends) == 0 {
		t.Fatal("Flush released no sends")
	}
	if _, ok := ctx.sends[0].(*types.Proposal); !ok {
		t.Fatalf("first released send = %T, want *types.Proposal", ctx.sends[0])
	}
	// The barrier covered the records appended by the handler.
	if got := j.appendsAtSync[len(j.appendsAtSync)-1]; got != j.appends {
		t.Fatalf("Sync covered %d of %d appended records", got, j.appends)
	}

	// Flush with nothing pending must not re-send.
	n := len(ctx.sends)
	nd.Flush(ctx)
	if len(ctx.sends) != n {
		t.Fatal("idle Flush produced sends")
	}
}

// TestGroupCommitPreservesSendOrder: releases happen in the order the
// handler issued them (a vote for a peer proposal followed by another
// event's sends must not interleave out of order).
func TestGroupCommitPreservesSendOrder(t *testing.T) {
	nd := groupCommitNode(t, core.NewMemJournal())
	peer := core.NewNode(core.Config{
		Committee: types.NewCommittee(4),
		Self:      0,
		Suite:     crypto.NewNopSuite(4),
	})
	pctx := &recordingCtx{}
	peer.Init(pctx)
	pctx.sends = nil
	peer.OnClientBatch(pctx, types.NewBatch(0, 1, []types.Transaction{{9}}, 0))
	if len(pctx.sends) == 0 {
		t.Fatal("peer produced no proposal")
	}
	prop := pctx.sends[0].(*types.Proposal)

	ctx := &recordingCtx{}
	nd.Init(ctx)
	nd.Flush(ctx)
	ctx.sends = nil
	nd.OnMessage(ctx, 0, prop)                                                      // lane vote (gated)
	nd.OnClientBatch(ctx, types.NewBatch(1, 1, []types.Transaction{{1, 2, 3}}, 50)) // own proposal (gated)
	if len(ctx.sends) != 0 {
		t.Fatal("sends escaped before Flush")
	}
	nd.Flush(ctx)
	if len(ctx.sends) < 2 {
		t.Fatalf("released %d sends, want at least vote+proposal", len(ctx.sends))
	}
	if _, ok := ctx.sends[0].(*types.Vote); !ok {
		t.Fatalf("first release = %T, want the earlier *types.Vote", ctx.sends[0])
	}
	if _, ok := ctx.sends[1].(*types.Proposal); !ok {
		t.Fatalf("second release = %T, want the later *types.Proposal", ctx.sends[1])
	}
}

// TestWALJournalGroupCommitAmortizesFlushes pins the storage-level win:
// N records journaled under one Sync cost one store flush, not N.
func TestWALJournalGroupCommitAmortizesFlushes(t *testing.T) {
	st, err := storage.Open(filepath.Join(t.TempDir(), "wal"))
	if err != nil {
		t.Fatal(err)
	}
	j := core.NewWALJournal(st)
	defer j.Close()

	const records = 100
	for i := 0; i < records; i++ {
		j.PrepVote(&types.PrepVote{Slot: types.Slot(i), View: 0, Voter: 1, Sig: []byte{1}})
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	if s.Appends != records {
		t.Fatalf("appends = %d, want %d", s.Appends, records)
	}
	if s.Flushes != 1 {
		t.Fatalf("flushes = %d for %d records, want 1 (group commit)", s.Flushes, records)
	}
	// An idle barrier is free.
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if st.Stats().Flushes != 1 {
		t.Fatal("idle Sync flushed")
	}
}

// BenchmarkJournalGroupCommit compares per-record barriers (the pre-PR
// behavior: every record flushed before its send) against group commit
// at realistic burst sizes.
func BenchmarkJournalGroupCommit(b *testing.B) {
	run := func(b *testing.B, every int) {
		st, err := storage.Open(filepath.Join(b.TempDir(), "wal"))
		if err != nil {
			b.Fatal(err)
		}
		j := core.NewWALJournal(st)
		defer j.Close()
		v := &types.PrepVote{Slot: 1, View: 0, Voter: 1, Sig: make([]byte, 64)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.Slot = types.Slot(i)
			j.PrepVote(v)
			if (i+1)%every == 0 {
				if err := j.Sync(); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		s := st.Stats()
		b.ReportMetric(float64(s.Appends)/float64(max(s.Flushes, 1)), "records/flush")
	}
	b.Run("barrier-every-1", func(b *testing.B) { run(b, 1) })
	b.Run("barrier-every-16", func(b *testing.B) { run(b, 16) })
	b.Run("barrier-every-64", func(b *testing.B) { run(b, 64) })
}

var _ runtime.Flusher = (*core.Node)(nil)
