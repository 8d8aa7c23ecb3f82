// Snapshot lifecycle and snapshot-based state sync. With the execution
// layer on (Config.Execution), the replica periodically checkpoints the
// execution state (Config.SnapshotEvery slots), truncates its journal
// and lane stores beneath the checkpoint's frontier — bounding on-disk
// growth — and serves the latest snapshot to peers. A replica that
// discovers it is hopelessly behind (a commit notice at least two
// snapshot intervals above its own frontier), or that nobody can serve
// it the history it needs any more (stateSyncIfUnservable), joins in
// O(state) instead of O(history): fetch the manifest, fetch and verify
// each chunk, verify the assembled state hash, install, and resume
// ordered replay from the snapshot frontier. With execution off there is
// no checkpoint, and lane stores keep a window of recent slots instead
// (trimHistory).
package core

import (
	"sync"

	"repro/internal/consensus"
	"repro/internal/exec"
	"repro/internal/runtime"
	"repro/internal/types"
)

// SnapshotStore persists the latest execution snapshot (one slot: each
// Save replaces the previous snapshot). Implementations must be
// crash-atomic — a torn Save must leave the previous snapshot loadable.
type SnapshotStore interface {
	Save(manifest, state []byte) error
	Load() (manifest, state []byte, err error)
}

// MemSnapshots is an in-memory SnapshotStore for simulated deployments:
// like the in-memory journal, the cluster retains it across protocol
// rebuilds (warm restart) and replaces it on amnesia.
type MemSnapshots struct {
	mu       sync.Mutex
	manifest []byte
	state    []byte
}

func (s *MemSnapshots) Save(manifest, state []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.manifest = append([]byte(nil), manifest...)
	s.state = append([]byte(nil), state...)
	return nil
}

func (s *MemSnapshots) Load() ([]byte, []byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.manifest, s.state, nil
}

// snapGCMargin is how many positions below the snapshot frontier lane
// stores retain after truncation: peers mid-sync may still request
// ranges just beneath the frontier.
const snapGCMargin = 128

// loadSnapshot reads and validates the persisted snapshot at startup.
// Any defect — torn file, undecodable manifest, state/manifest mismatch
// — degrades to "no snapshot" (the journal or genesis takes over).
func (n *Node) loadSnapshot() (*exec.Manifest, []byte) {
	if n.cfg.Snapshots == nil {
		return nil, nil
	}
	enc, state, err := n.cfg.Snapshots.Load()
	if err != nil || enc == nil {
		return nil, nil
	}
	man, err := exec.DecodeManifest(enc)
	if err != nil || len(man.Frontier) != n.cfg.Committee.Size() {
		return nil, nil
	}
	if err := man.VerifyState(state); err != nil {
		return nil, nil
	}
	return man, state
}

// maybeSnapshot checkpoints the execution state when the frontier has
// advanced a full snapshot interval past the previous checkpoint, then
// truncates everything the checkpoint subsumes. Ordering is the
// crash-safety invariant: the snapshot is durably saved BEFORE the
// journal truncates, so a crash between the two leaves both a complete
// snapshot and a complete journal — recovery takes the newer frontier.
func (n *Node) maybeSnapshot() {
	if n.machine == nil || n.cfg.Snapshots == nil || n.cfg.SnapshotEvery == 0 {
		return
	}
	next := n.orderer.NextExec()
	if next < n.lastSnap+n.cfg.SnapshotEvery {
		return
	}
	state := n.machine.Serialize()
	frontier := n.orderer.Frontier()
	digests := n.orderer.FrontierDigests()
	man := exec.BuildManifest(next, frontier, digests, n.machine.AppHash(), n.machine.Count(), state)
	enc := man.Encode()
	if err := n.cfg.Snapshots.Save(enc, state); err != nil {
		// Keep serving the previous snapshot; never truncate without a
		// durable replacement.
		return
	}
	n.snapMan, n.snapEnc, n.snapState = man, enc, state
	n.lastSnap = next
	n.stats.SnapshotFrontier.Store(uint64(next))
	n.cfg.Journal.Truncate(n.cfg.Self, frontier, next)
	for _, l := range n.cfg.Committee.Nodes() {
		if frontier[l] > snapGCMargin {
			n.lanes.Store().GCBelow(l, frontier[l]-snapGCMargin)
		}
	}
}

// trimHistory is the truncation line of a replica with execution off.
// It has no checkpoint to truncate at, so without this its lane stores
// would keep every car of the run; instead they keep the cars of the last
// consensus.RetainSlots slots. Lane l drops the positions beneath its tip
// in the cut of slot NextExec − RetainSlots: a peer fewer than
// RetainSlots slots behind has executed that slot, so its frontier is at
// or above every tip of that cut and it asks only for positions above.
// The unit is slots, not positions, because that is what a lagging
// replica misses — during view timeouts positions and slots drift apart.
// The cut comes from the retained commit notice; a slot without one
// (beneath a restart's replay) skips a round, which only keeps more.
func (n *Node) trimHistory() {
	next := n.orderer.NextExec()
	if n.machine != nil || next <= consensus.RetainSlots {
		return
	}
	notice := n.recentNotices[next-consensus.RetainSlots]
	if notice == nil {
		return
	}
	for _, t := range notice.Proposal.Cut.Tips {
		if t.Position > 1 {
			n.lanes.Store().GCBelow(t.Lane, t.Position)
		}
	}
}

// maybeStateSync starts a snapshot sync when a commit notice reveals the
// replica is at least two snapshot intervals behind the sender: replay
// would cost O(history) — and with truncating peers the history below
// their snapshot frontiers is not even fetchable — so fetch state.
func (n *Node) maybeStateSync(ctx runtime.Context, from types.NodeID, decided types.Slot) {
	if n.machine == nil || n.cfg.SnapshotEvery == 0 || n.replaying || from == n.cfg.Self {
		return
	}
	if n.snapSync.Active() {
		return
	}
	if decided < n.orderer.NextExec()+2*n.cfg.SnapshotEvery {
		return
	}
	n.beginStateSync(ctx, from)
}

// stateSyncIfUnservable is where history sync hands over to state sync,
// so the two tile whatever the distance: a catch-up stream that execution
// is blocked on was dropped because every replica that should hold the
// range stayed silent on it (exhausted, from fetch.Manager.Tick). That is
// how history beneath the peers' truncation line looks from here — a
// replica that stopped a few slots before a snapshot boundary finds it so
// on its return, a view timeout's worth of cars (more than snapGCMargin)
// having been committed in those few slots — and asking again would never
// end. The distance rule above stays as the early path: it spares a
// replica that is far behind the silent rotation.
//
// A replica without snapshots has nothing to hand over to. With
// execution off that is the RetainSlots limit (trimHistory): every such
// drop counts in Stats.HistoryUnservable, so a replica stuck beneath its
// peers' history says so.
func (n *Node) stateSyncIfUnservable(ctx runtime.Context, exhausted []types.NodeID) {
	for _, l := range exhausted {
		if !n.orderer.BlockedOn(l) {
			continue
		}
		switch {
		case n.machine == nil || n.cfg.SnapshotEvery == 0:
			n.stats.HistoryUnservable.Add(1)
		case !n.snapSync.Active() && n.noticeFrom != n.cfg.Self:
			n.beginStateSync(ctx, n.noticeFrom)
		}
		return
	}
}

func (n *Node) beginStateSync(ctx runtime.Context, target types.NodeID) {
	if n.snapSync.Begin(ctx.Now(), target) {
		ctx.Send(target, &types.SnapshotRequest{Requester: n.cfg.Self})
	}
}

func (n *Node) serveSnapshotRequest(ctx runtime.Context, req *types.SnapshotRequest) {
	if n.snapEnc == nil || req.Requester == n.cfg.Self {
		return
	}
	ctx.Send(req.Requester, &types.SnapshotManifest{Manifest: n.snapEnc})
}

func (n *Node) handleSnapshotManifest(ctx runtime.Context, from types.NodeID, m *types.SnapshotManifest) {
	if !n.snapSync.Active() || from != n.snapSync.Target() {
		return
	}
	man, err := exec.DecodeManifest(m.Manifest)
	if err != nil || len(man.Frontier) != n.cfg.Committee.Size() || man.Next <= n.orderer.NextExec() {
		// Useless or hostile manifest: leave the sync to stall and rotate.
		return
	}
	if n.syncMan != nil {
		if man.StateHash == n.syncMan.StateHash {
			// Duplicate manifest (retry): chase only what is missing.
			n.snapSync.Touch(ctx.Now())
			n.requestMissingChunks(ctx, from)
			return
		}
		if man.Next < n.syncMan.Next {
			return // older than the snapshot already being fetched
		}
	}
	n.syncMan = man
	n.syncChunks = make([][]byte, len(man.Chunks))
	n.syncGot = 0
	n.snapSync.Touch(ctx.Now())
	n.requestMissingChunks(ctx, from)
}

func (n *Node) requestMissingChunks(ctx runtime.Context, target types.NodeID) {
	for i, c := range n.syncChunks {
		if c == nil {
			ctx.Send(target, &types.ChunkRequest{StateHash: n.syncMan.StateHash, Index: uint32(i), Requester: n.cfg.Self})
		}
	}
}

func (n *Node) serveChunkRequest(ctx runtime.Context, req *types.ChunkRequest) {
	if n.snapMan == nil || req.StateHash != n.snapMan.StateHash || req.Requester == n.cfg.Self {
		return
	}
	data := n.snapMan.Chunk(n.snapState, int(req.Index))
	if data == nil {
		return
	}
	ctx.Send(req.Requester, &types.ChunkReply{StateHash: req.StateHash, Index: req.Index, Data: data})
}

func (n *Node) handleChunkReply(ctx runtime.Context, from types.NodeID, m *types.ChunkReply) {
	if !n.snapSync.Active() || n.syncMan == nil || m.StateHash != n.syncMan.StateHash {
		return
	}
	i := int(m.Index)
	if i >= len(n.syncChunks) || n.syncChunks[i] != nil {
		return
	}
	if err := n.syncMan.VerifyChunk(i, m.Data); err != nil {
		return
	}
	n.syncChunks[i] = m.Data
	n.syncGot++
	n.snapSync.Touch(ctx.Now())
	if n.syncGot < len(n.syncChunks) {
		return
	}
	state := make([]byte, 0, n.syncMan.StateLen)
	for _, c := range n.syncChunks {
		state = append(state, c...)
	}
	man := n.syncMan
	n.syncMan, n.syncChunks, n.syncGot = nil, nil, 0
	n.snapSync.Reset()
	if err := man.VerifyState(state); err != nil {
		return // per-chunk hashes passed but the whole didn't: discard
	}
	n.installSnapshot(ctx, man, state)
}

// installSnapshot adopts a verified remote snapshot: the machine takes
// the state, the orderer jumps to the snapshot frontier, the lane layer
// adopts the committed frontiers (vote-frontier adoption + fork GC,
// exactly as local execution would have), and ordered replay resumes
// above the frontier.
func (n *Node) installSnapshot(ctx runtime.Context, man *exec.Manifest, state []byte) {
	if man.Next <= n.orderer.NextExec() {
		return // local replay passed the snapshot while it downloaded
	}
	if err := n.machine.Install(state); err != nil {
		return
	}
	n.orderer.InstallSnapshot(man.Next, man.Frontier, man.Digests)
	for _, l := range n.cfg.Committee.Nodes() {
		if pos := man.Frontier[l]; pos > 0 {
			n.toShard(ctx, &frontierMsg{lane: l, pos: pos, digest: man.Digests[l]})
		}
		// Range fetches for history beneath the frontier are moot (and,
		// against truncating peers, unservable); fetches spanning it are
		// rebased to their still-wanted upper remainder and re-sent now —
		// a genesis-deep pre-install gap fetch otherwise pins the
		// outstanding-position budget (and a proportionally long retry
		// deadline), wedging the post-install execute fetches behind it
		// for a time that grows with history depth.
		for _, e := range n.fetcher.Rebase(ctx.Now(), l, man.Frontier[l]) {
			ctx.Send(e.To, e.Msg)
		}
	}
	n.cfg.Journal.Executed(man.Next, man.Frontier, man.Digests, man.AppHash, man.Count)
	enc := man.Encode()
	if n.cfg.Snapshots != nil {
		if err := n.cfg.Snapshots.Save(enc, state); err == nil {
			n.cfg.Journal.Truncate(n.cfg.Self, man.Frontier, man.Next)
		}
	}
	n.snapMan, n.snapEnc, n.snapState = man, enc, state
	n.lastSnap = man.Next
	n.stats.SnapshotFrontier.Store(uint64(man.Next))
	n.stats.SnapshotsInstalled.Add(1)
	n.engine.OnTipsAdvanced()
	n.drainExecution(ctx)
}

// tickStateSync retries a stalled state sync on the fetch tick, rotating
// targets; an exhausted attempt budget abandons the sync (ordinary range
// fetching remains as the fallback).
func (n *Node) tickStateSync(ctx runtime.Context) {
	if !n.snapSync.Stalled(ctx.Now()) {
		return
	}
	target, ok := n.snapSync.Rotate(ctx.Now(), n.cfg.Committee.Size(), n.cfg.Self)
	if !ok {
		n.syncMan, n.syncChunks, n.syncGot = nil, nil, 0
		return
	}
	// Always re-open with a manifest request: the new target may hold a
	// different (newer) snapshot, and a duplicate manifest for the one in
	// flight just re-drives the missing chunks.
	ctx.Send(target, &types.SnapshotRequest{Requester: n.cfg.Self})
}
