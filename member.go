package autobahn

import (
	"sync"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/mempool"
	"repro/internal/runtime"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// member is one real-time replica as LiveCluster and Replica both
// assemble it: the protocol node, what the event loop drives (the node,
// or the adversary wrapper around it), and the mempool that seals client
// transactions into batches for the node's own lane.
type member struct {
	node  *core.Node
	proto runtime.Protocol
	// loop is the event loop hosting proto; set by the owner once the
	// mesh has built it, before any submission.
	loop *transport.Loop

	mu   sync.Mutex // guards pool: submissions may arrive concurrently
	pool *mempool.Pool
}

// newMember builds replica id of a real-time deployment. Signatures are
// always verified. journal is nil without a WAL; with one, journal
// writes group-commit — records accumulate across each event-loop burst
// and one Sync covers them all, with the gated sends released only after
// it returns (the transport loop drives the Flush hook). onFatal, when
// set, is told once that a journal barrier failed and the node halted.
func (o Options) newMember(id types.NodeID, suite crypto.Suite, sink runtime.CommitSink, journal core.Journal, onFatal func(error)) (*member, error) {
	cfg := o.nodeConfig(id, suite, sink)
	cfg.VerifySigs = true
	if journal != nil {
		cfg.Journal = journal
		cfg.GroupCommit = true
	}
	cfg.OnFatal = onFatal
	if o.SnapshotEvery > 0 {
		if o.WALPath != "" {
			// Snapshots persist beside the WAL, atomically replaced; a
			// restarted process recovers from the newer of snapshot and
			// journal frontier.
			cfg.Snapshots = storage.FileSnapshots{Path: o.WALPath + ".snap"}
		} else {
			// Without a WAL, snapshots live in memory so peers can still
			// serve state sync.
			cfg.Snapshots = &core.MemSnapshots{}
		}
	}
	// Parallel data plane (auto-sized to the hardware): lane traffic runs
	// on per-shard workers, consensus stays serialized.
	cfg.Shards = o.dataShards()
	behavior := o.Adversaries[id]
	if behavior != "" {
		cfg.Shards = 1 // adversary wrappers are single-threaded
	}
	m := &member{
		node: core.NewNode(cfg),
		pool: mempool.NewPool(mempool.Config{
			Self:          id,
			MaxBatchTxs:   o.MaxBatchTxs,
			MaxBatchDelay: o.MaxBatchDelay,
		}),
	}
	m.proto = m.node
	// A Byzantine replica is the honest node behind the adversary wrapper;
	// it joins the mesh through the wrapper so its behavior intercepts
	// every outbound message.
	if behavior != "" {
		w, err := adversary.WrapNode(m.node, o.committee(), id, suite.Signer(id), behavior, 0, 0)
		if err != nil {
			return nil, err
		}
		m.proto = w
	}
	return m, nil
}

// submit adds transactions that arrived at now to the mempool and hands
// every batch they seal to the event loop.
func (m *member) submit(now time.Duration, txs ...[]byte) {
	var sealed []*types.Batch
	m.mu.Lock()
	for _, tx := range txs {
		sealed = append(sealed, m.pool.AddTx(types.Transaction(tx), now)...)
	}
	m.mu.Unlock()
	for _, b := range sealed {
		m.loop.Submit(b)
	}
}

// flushDue seals the partial batch whose delay has run out, if any.
func (m *member) flushDue(now time.Duration) {
	m.mu.Lock()
	var b *types.Batch
	if m.pool.FlushDue(now) {
		b = m.pool.Flush(now)
	}
	m.mu.Unlock()
	if b != nil {
		m.loop.Submit(b)
	}
}

// flushLoop seals partially filled batches of members after the batch
// delay, until done closes.
func flushLoop(delay time.Duration, epoch time.Time, done <-chan struct{}, members []*member) {
	if delay == 0 {
		delay = 100 * time.Millisecond
	}
	tick := time.NewTicker(delay / 2)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
		}
		now := time.Since(epoch)
		for _, m := range members {
			m.flushDue(now)
		}
	}
}
