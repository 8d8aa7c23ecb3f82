package lane

import (
	"sync"

	"repro/internal/types"
)

// Store indexes every data proposal a replica has received, by lane,
// position and digest (Byzantine lanes may fork, so one position can hold
// several proposals). It backs ordering (fetching committed payloads),
// sync serving (walking chain suffixes), and fork garbage collection.
//
// The store is safe for concurrent use: under the sharded data plane
// (core's runtime.Sharder implementation) per-lane shard workers insert
// proposals while the control plane reads them for ordering and the
// consensus engine checks tip availability. A single RWMutex suffices —
// every operation is a few map lookups, orders of magnitude cheaper than
// the payload hashing and signature work that surrounds it.
type Store struct {
	mu    sync.RWMutex
	lanes map[types.NodeID]map[types.Pos]map[types.Digest]*types.Proposal
	count int
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{lanes: make(map[types.NodeID]map[types.Pos]map[types.Digest]*types.Proposal)}
}

// Put stores p; duplicate (lane, pos, digest) entries are ignored.
// It returns true if the proposal was newly stored.
func (s *Store) Put(p *types.Proposal) bool {
	d := p.Digest() // outside the lock: first call hashes the payload
	s.mu.Lock()
	defer s.mu.Unlock()
	byPos, ok := s.lanes[p.Lane]
	if !ok {
		byPos = make(map[types.Pos]map[types.Digest]*types.Proposal)
		s.lanes[p.Lane] = byPos
	}
	byDig, ok := byPos[p.Position]
	if !ok {
		byDig = make(map[types.Digest]*types.Proposal)
		byPos[p.Position] = byDig
	}
	if _, dup := byDig[d]; dup {
		return false
	}
	byDig[d] = p
	s.count++
	return true
}

// Get returns the proposal at (lane, pos) with the given digest, or nil.
func (s *Store) Get(lane types.NodeID, pos types.Pos, digest types.Digest) *types.Proposal {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if byDig, ok := s.lanes[lane][pos]; ok {
		return byDig[digest]
	}
	return nil
}

// Has reports whether the proposal is stored.
func (s *Store) Has(lane types.NodeID, pos types.Pos, digest types.Digest) bool {
	return s.Get(lane, pos, digest) != nil
}

// Len returns the number of stored proposals.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count
}

// ChainSuffix returns the proposals of `lane` at positions [from, to], in
// ascending order, walking parent links backward from the proposal with
// tipDigest at position `to`. The second result is false if any link is
// missing locally (the returned prefix may then be partial, covering the
// highest contiguous suffix found).
func (s *Store) ChainSuffix(lane types.NodeID, from, to types.Pos, tipDigest types.Digest) ([]*types.Proposal, bool) {
	if from == 0 {
		from = 1
	}
	if to < from {
		return nil, true
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*types.Proposal, 0, int(to-from)+1)
	dig := tipDigest
	for pos := to; pos >= from; pos-- {
		var p *types.Proposal
		if byDig, ok := s.lanes[lane][pos]; ok {
			p = byDig[dig]
		}
		if p == nil {
			// reverse what we have and report incompleteness
			reverse(out)
			return out, false
		}
		out = append(out, p)
		dig = p.Parent
		if pos == 1 {
			break
		}
	}
	reverse(out)
	return out, true
}

// ChainTop walks the lane's chain upward from the proposal identified by
// (pos, digest) — position 0 is genesis — and returns the highest position
// reached: the top of what the store holds contiguously above it. A step
// is taken only when exactly one stored proposal at the next position
// names the current digest as its parent; positions alone prove nothing
// (a Byzantine lane may have forked), and at a visible fork either
// sibling may be the one the chain continues through, so the walk stops
// beneath it.
func (s *Store) ChainTop(lane types.NodeID, pos types.Pos, digest types.Digest) types.Pos {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for {
		var next *types.Proposal
		links := 0
		//lint:allow detrange next is read only when exactly one child links, whatever the order
		for _, p := range s.lanes[lane][pos+1] {
			if p.Parent == digest {
				next = p
				links++
			}
		}
		if links != 1 {
			return pos
		}
		pos, digest = next.Position, next.Digest()
	}
}

// GCBelow drops all proposals of `lane` at positions < keep. Committed
// prefixes are garbage collected after ordering; fork siblings below the
// committed frontier disappear here (§A.4).
func (s *Store) GCBelow(lane types.NodeID, keep types.Pos) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for pos, byDig := range s.lanes[lane] {
		if pos < keep {
			removed += len(byDig)
			delete(s.lanes[lane], pos)
		}
	}
	s.count -= removed
	return removed
}

// ForksAt returns how many distinct proposals are stored at (lane, pos).
func (s *Store) ForksAt(lane types.NodeID, pos types.Pos) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.lanes[lane][pos])
}

func reverse(ps []*types.Proposal) {
	for i, j := 0, len(ps)-1; i < j; i, j = i+1, j-1 {
		ps[i], ps[j] = ps[j], ps[i]
	}
}
