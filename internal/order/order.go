// Package order turns committed consensus cuts into a single total order
// of data proposals (§5.2.2 "Processing committed cuts" and "Creating a
// Total Order"): slots execute strictly in slot order; within a slot, each
// lane contributes the proposals between its last committed position and
// the committed tip, and the lanes are interleaved by the deterministic
// zip (position, then lane id). Non-monotonic cuts (§5.4) are filtered by
// ignoring tips at or below a lane's committed frontier; fork siblings
// below the frontier become garbage (§A.4).
package order

import (
	"fmt"
	"sort"

	"repro/internal/types"
)

// DataSource supplies stored proposals (satisfied by lane.Store).
type DataSource interface {
	// ChainSuffix returns lane proposals for positions [from, to] walking
	// parent links back from (to, tipDigest); ok is false if incomplete,
	// in which case the returned slice covers the top of the range only.
	ChainSuffix(lane types.NodeID, from, to types.Pos, tipDigest types.Digest) ([]*types.Proposal, bool)
	// ChainTop returns the highest position held contiguously above
	// (pos, digest), following parent links upward and stopping beneath a
	// fork.
	ChainTop(lane types.NodeID, pos types.Pos, digest types.Digest) types.Pos
}

// Entry is one totally-ordered data proposal.
type Entry struct {
	Slot     types.Slot
	Lane     types.NodeID
	Position types.Pos
	Batch    *types.Batch
	Digest   types.Digest
}

// Missing describes lane data required before a slot can execute; the
// fetch layer turns these into SyncRequests aimed at the tip's certifiers.
type Missing struct {
	Lane      types.NodeID
	From, To  types.Pos
	TipDigest types.Digest
	Tip       types.TipRef
	Slot      types.Slot
}

// Orderer executes committed slots in order.
type Orderer struct {
	committee types.Committee
	src       DataSource

	pendingSlots map[types.Slot]*types.ConsensusProposal
	nextExec     types.Slot
	lastCommit   []types.Pos
	lastDigest   []types.Digest
}

// NewOrderer builds an orderer starting at slot 1 with empty lanes.
func NewOrderer(committee types.Committee, src DataSource) *Orderer {
	return &Orderer{
		committee:    committee,
		src:          src,
		pendingSlots: make(map[types.Slot]*types.ConsensusProposal),
		nextExec:     1,
		lastCommit:   make([]types.Pos, committee.Size()),
		lastDigest:   make([]types.Digest, committee.Size()),
	}
}

// LastCommit returns the committed frontier position for a lane.
func (o *Orderer) LastCommit(lane types.NodeID) types.Pos { return o.lastCommit[lane] }

// NextExec returns the next slot awaiting execution.
func (o *Orderer) NextExec() types.Slot { return o.nextExec }

// PendingSlot reports whether a decided-but-unexecuted proposal exists
// for slot s.
func (o *Orderer) PendingSlot(s types.Slot) bool {
	_, ok := o.pendingSlots[s]
	return ok
}

// BlockedOn reports whether the next slot is decided and cannot execute
// for want of lane's data: its cut commits a tip above the lane's frontier
// whose chain the store does not hold down to it.
func (o *Orderer) BlockedOn(lane types.NodeID) bool {
	prop, ok := o.pendingSlots[o.nextExec]
	if !ok || int(lane) >= len(prop.Cut.Tips) {
		return false
	}
	tip, last := prop.Cut.Tips[lane], o.lastCommit[lane]
	if tip.Position <= last {
		return false
	}
	_, complete := o.src.ChainSuffix(lane, last+1, tip.Position, tip.Digest)
	return !complete
}

// AddDecision records a committed slot. Decisions may arrive in any order
// and at most once per slot (consensus safety guarantees one value).
func (o *Orderer) AddDecision(s types.Slot, p *types.ConsensusProposal) error {
	if s == 0 {
		return fmt.Errorf("order: slot 0 invalid")
	}
	if s < o.nextExec {
		return nil // stale duplicate of an executed slot
	}
	if prev, ok := o.pendingSlots[s]; ok {
		if prev.Cut.Digest() != p.Cut.Digest() {
			return fmt.Errorf("order: conflicting decisions for slot %d", s)
		}
		return nil
	}
	o.pendingSlots[s] = p
	return nil
}

// TryExecute executes as many consecutive slots as data availability
// allows, returning the newly ordered entries, the data still missing for
// the first blocked slot (empty when blocked only on a missing decision),
// and the slots executed.
func (o *Orderer) TryExecute() (entries []Entry, missing []Missing, executed []types.Slot) {
	for {
		prop, ok := o.pendingSlots[o.nextExec]
		if !ok {
			return entries, nil, executed
		}
		slotEntries, slotMissing := o.executeSlot(o.nextExec, prop)
		if len(slotMissing) > 0 {
			return entries, slotMissing, executed
		}
		entries = append(entries, slotEntries...)
		executed = append(executed, o.nextExec)
		delete(o.pendingSlots, o.nextExec)
		o.nextExec++
	}
}

// executeSlot orders one slot's cut, or reports what data is missing.
func (o *Orderer) executeSlot(s types.Slot, prop *types.ConsensusProposal) ([]Entry, []Missing) {
	type laneChain struct {
		lane  types.NodeID
		props []*types.Proposal
	}
	var chains []laneChain
	var missing []Missing

	for _, tip := range prop.Cut.Tips {
		last := o.lastCommit[tip.Lane]
		if tip.Position <= last {
			continue // old tip in a non-monotonic cut: ignore (§5.4)
		}
		from := last + 1
		props, complete := o.src.ChainSuffix(tip.Lane, from, tip.Position, tip.Digest)
		if !complete {
			missing = append(missing, o.missingBelow(tip, s, props))
			continue
		}
		chains = append(chains, laneChain{lane: tip.Lane, props: props})
	}
	if len(missing) > 0 {
		return nil, missing
	}

	// Deterministic zip: ascending (position, lane).
	var entries []Entry
	idx := make([]int, len(chains))
	for {
		best := -1
		for i, c := range chains {
			if idx[i] >= len(c.props) {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			pi, pb := c.props[idx[i]], chains[best].props[idx[best]]
			if pi.Position < pb.Position || (pi.Position == pb.Position && c.lane < chains[best].lane) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		p := chains[best].props[idx[best]]
		idx[best]++
		entries = append(entries, Entry{
			Slot: s, Lane: p.Lane, Position: p.Position, Batch: p.Batch, Digest: p.Digest(),
		})
	}

	// Advance frontiers.
	for _, c := range chains {
		tipProp := c.props[len(c.props)-1]
		o.lastCommit[c.lane] = tipProp.Position
		o.lastDigest[c.lane] = tipProp.Digest()
	}
	return entries, nil
}

// missingBelow describes what a committed tip still lacks, given the top
// of its chain that the store holds (held, from ChainSuffix): the range
// runs from the lowest absent position up to just below held, anchored at
// held's parent link (at the tip itself when nothing is held).
//
// The lowest absent position is read from the store — a walk up from the
// committed frontier — not assumed to be frontier+1: a recovering replica
// usually holds the bottom of the range, and asking for it again is a
// second copy across its ingest path. The walk cannot tell a fork sibling
// from its committed twin, so it may run past a position whose twin is
// absent; it then ends above the range's top, which only a fork explains,
// and the whole range from the frontier is reported instead.
func (o *Orderer) missingBelow(tip types.TipRef, s types.Slot, held []*types.Proposal) Missing {
	m := Missing{Lane: tip.Lane, To: tip.Position, TipDigest: tip.Digest, Tip: tip, Slot: s}
	if len(held) > 0 {
		m.To, m.TipDigest = held[0].Position-1, held[0].Parent
	}
	last := o.lastCommit[tip.Lane]
	if m.From = o.src.ChainTop(tip.Lane, last, o.lastDigest[tip.Lane]) + 1; m.From > m.To {
		m.From = last + 1
	}
	return m
}

// CatchupRanges coalesces the data still needed across ALL decided-but-
// unexecuted slots into at most one range per lane, anchored at the
// highest committed tip (§5.2.2: a tip transitively references its whole
// history, so one round trip fetches an arbitrarily long backlog — the
// property that makes recovery seamless; fetching per slot would cost one
// round trip per slot of backlog).
func (o *Orderer) CatchupRanges() []Missing {
	type bestTip struct {
		tip  types.TipRef
		slot types.Slot
	}
	// Slots (and, below, lanes) are visited in ascending order — never
	// map order: on position ties the chosen anchor slot, and the order
	// of the emitted ranges (which become sends), must be deterministic
	// functions of the event history for fixed-seed simulations to stay
	// reproducible.
	slots := make([]types.Slot, 0, len(o.pendingSlots))
	for s := range o.pendingSlots {
		slots = append(slots, s)
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
	best := make(map[types.NodeID]bestTip)
	for _, s := range slots {
		for _, tip := range o.pendingSlots[s].Cut.Tips {
			if tip.Position <= o.lastCommit[tip.Lane] {
				continue
			}
			if b, ok := best[tip.Lane]; !ok || tip.Position > b.tip.Position {
				best[tip.Lane] = bestTip{tip: tip, slot: s}
			}
		}
	}
	var out []Missing
	for l := types.NodeID(0); int(l) < len(o.lastCommit); l++ {
		b, ok := best[l]
		if !ok {
			continue
		}
		props, complete := o.src.ChainSuffix(l, o.lastCommit[l]+1, b.tip.Position, b.tip.Digest)
		if complete {
			continue // locally present: nothing to fetch for this lane
		}
		out = append(out, o.missingBelow(b.tip, b.slot, props))
	}
	return out
}

// Frontier returns a copy of the per-lane committed positions.
func (o *Orderer) Frontier() []types.Pos {
	out := make([]types.Pos, len(o.lastCommit))
	copy(out, o.lastCommit)
	return out
}

// FrontierDigest returns the digest committed at a lane's frontier.
func (o *Orderer) FrontierDigest(lane types.NodeID) types.Digest { return o.lastDigest[lane] }

// FrontierDigests returns a copy of the per-lane frontier digests.
func (o *Orderer) FrontierDigests() []types.Digest {
	out := make([]types.Digest, len(o.lastDigest))
	copy(out, o.lastDigest)
	return out
}

// Restore resets the execution frontier from a journal snapshot (crash
// recovery): slots below nextExec count as executed and never re-emit,
// and per-lane committed positions/digests resume from the recorded
// frontier. Must be called before any decision is added.
func (o *Orderer) Restore(nextExec types.Slot, frontier []types.Pos, digests []types.Digest) {
	if nextExec > o.nextExec {
		o.nextExec = nextExec
	}
	if len(frontier) == len(o.lastCommit) {
		copy(o.lastCommit, frontier)
	}
	if len(digests) == len(o.lastDigest) {
		copy(o.lastDigest, digests)
	}
}

// InstallSnapshot jumps the execution frontier forward to a verified
// snapshot's frontier (state sync): slots below next will never execute
// locally — their effect is already in the installed state — so pending
// decisions beneath the frontier are discarded. Unlike Restore it may be
// called mid-run, after decisions have been added. A frontier at or
// below the current one is a no-op (the local replay already passed it).
func (o *Orderer) InstallSnapshot(next types.Slot, frontier []types.Pos, digests []types.Digest) {
	if next <= o.nextExec {
		return
	}
	o.nextExec = next
	if len(frontier) == len(o.lastCommit) {
		copy(o.lastCommit, frontier)
	}
	if len(digests) == len(o.lastDigest) {
		copy(o.lastDigest, digests)
	}
	// Purge pending decisions below the frontier in sorted order (the
	// deletion order must not depend on map layout — detrange).
	stale := make([]types.Slot, 0, len(o.pendingSlots))
	for s := range o.pendingSlots {
		if s < next {
			stale = append(stale, s)
		}
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i] < stale[j] })
	for _, s := range stale {
		delete(o.pendingSlots, s)
	}
}
