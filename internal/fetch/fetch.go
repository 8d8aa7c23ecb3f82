// Package fetch implements Autobahn's data synchronization (§5.2.2):
// replicas missing lane history request it — in a single round trip,
// regardless of backlog length — from the replicas that certified the
// tip (one of which must be correct and, by FIFO voting, hold the entire
// history). Synchronization is non-blocking: it proceeds in parallel with
// consensus voting and only gates execution.
//
// Catch-up is single-copy: every car a recovering replica is missing
// should cross its ingest path once. The manager therefore keeps one
// catch-up stream per lane — a range with a cursor — asks for each
// position once, issues one follow-up per served window, and re-asks only
// when the stream has gone silent; positions above a lane's advancing
// live frontier are on their way and are not asked for at all.
//
// The manager is a pure state machine: the node sends the requests it
// emits, feeds replies and live arrivals back, and pumps retries from a
// coarse tick timer.
package fetch

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/types"
)

// Request is an outstanding fetch: a lane's catch-up stream (From is its
// cursor — the next position still to arrive) or a point request for one
// optimistic tip (From == To).
type Request struct {
	Lane      types.NodeID
	From, To  types.Pos
	TipDigest types.Digest

	targets []types.NodeID
	// target indexes the replica currently asked; attempt counts the
	// targets tried since the request last progressed.
	target, attempt int
	// sent is when the outstanding SyncRequest left; progress is the later
	// of that and the last reply that advanced the request.
	sent, progress time.Duration
	// asked is the top position the outstanding SyncRequest named and got
	// the bytes received since it left: together they tell when the
	// responder's window has been served in full (see Serve).
	asked types.Pos
	got   int
	// below is the digest of position From-1 as the stream delivered it
	// (zero before the first reply): the next reply must chain onto it.
	below types.Digest
}

type key struct {
	lane types.NodeID
	pos  types.Pos
	dig  types.Digest
}

// maxReplyProposals bounds accepted reply sizes (flooding guard).
const maxReplyProposals = 1 << 16

// Config parameterizes the manager.
type Config struct {
	Self types.NodeID
	// RetryAfter is how long a request may stay silent before it is
	// re-issued to the next target, and how long a lane's live stream may
	// stay silent before positions above it count as lost (default 300ms —
	// beyond one intra-US RTT plus processing). Replies that queue behind
	// a busy ingest path stretch it: see Manager.patience.
	RetryAfter time.Duration
	// MaxOutstandingPositions bounds the total range the catch-up streams
	// may have outstanding (default 512 positions). Point requests bypass
	// the budget so consensus voting never starves.
	MaxOutstandingPositions int
}

func (c *Config) fill() {
	if c.RetryAfter == 0 {
		c.RetryAfter = 300 * time.Millisecond
	}
	if c.MaxOutstandingPositions == 0 {
		c.MaxOutstandingPositions = 512
	}
}

// liveMark is the highest position a lane's live broadcast has delivered,
// and when it got there.
type liveMark struct {
	pos types.Pos
	at  time.Duration
}

// Manager tracks outstanding fetches.
type Manager struct {
	cfg     Config
	streams map[types.NodeID]*Request
	tips    map[key]*Request
	live    map[types.NodeID]liveMark
	// age is the oldest a request has been when a reply for it still
	// arrived, over the current catch-up episode (see patience).
	age time.Duration
}

// NewManager builds a fetch manager.
func NewManager(cfg Config) *Manager {
	cfg.fill()
	return &Manager{
		cfg:     cfg,
		streams: make(map[types.NodeID]*Request),
		tips:    make(map[key]*Request),
		live:    make(map[types.NodeID]liveMark),
	}
}

// Outstanding returns the number of pending fetches.
func (m *Manager) Outstanding() int { return len(m.streams) + len(m.tips) }

// budgetUsed sums the ranges the streams still have to receive.
func (m *Manager) budgetUsed() int {
	used := 0
	for _, s := range m.streams {
		used += int(s.To - s.From + 1)
	}
	return used
}

// Emit is a request to send plus its destination.
type Emit struct {
	To  types.NodeID
	Msg *types.SyncRequest
}

// NoteLive records that the lane's live broadcast delivered the car at
// pos (in order or buffered above a gap). Links are FIFO, so once a live
// car has arrived everything the lane broadcast after it is on its way.
// Only a car above the frontier counts as the lane delivering: a lane
// replaying old cars must not keep what it withholds looking in flight.
func (m *Manager) NoteLive(now time.Duration, lane types.NodeID, pos types.Pos) {
	if pos > m.live[lane].pos {
		m.live[lane] = liveMark{pos: pos, at: now}
	}
}

// inFlight reports whether the lane's car at pos is still on its way by
// live broadcast: it lies above everything the lane has delivered, and
// the lane delivered something — or the need arose (since) — less than
// patience ago. A position at or below the live frontier that is absent
// was overtaken on a FIFO link: it is lost, not late.
func (m *Manager) inFlight(now time.Duration, lane types.NodeID, pos types.Pos, since time.Duration) bool {
	lv := m.live[lane]
	if lv.at > since {
		since = lv.at
	}
	return pos > lv.pos && now-since < m.patience()
}

// Want makes sure [from, to] of lane, anchored at tipDigest, is being
// fetched, asking the given candidate targets in order (certifier quorum
// first). It returns the message to send now, or nil: when the top of the
// range is still in flight by live broadcast (the hole beneath a lane's
// first live car is wanted by its own, lower range), when the lane's
// stream already covers the range or was extended upward to cover it, or
// when the budget is spent (callers re-trigger from their tick paths). A
// lane has at most one stream, so ranges never overlap.
func (m *Manager) Want(now time.Duration, lane types.NodeID, from, to types.Pos, tipDigest types.Digest, targets []types.NodeID) *Emit {
	if to < from || to == 0 || m.inFlight(now, lane, to, 0) {
		return nil
	}
	s, streaming := m.streams[lane]
	if streaming && (to <= s.To || from > s.To+1) {
		return nil // covered, or not adjoining: wait for the stream to finish
	}
	grow := int(to - from + 1)
	if streaming {
		grow = int(to - s.To)
	}
	if m.budgetUsed()+grow > m.cfg.MaxOutstandingPositions {
		return nil
	}
	if targets = m.peers(targets); len(targets) == 0 {
		return nil
	}
	if streaming {
		// A higher anchor adjoining the stream extends it: the follow-up
		// request names the new top, and its certifiers hold the whole
		// range.
		s.To, s.TipDigest, s.targets, s.target, s.attempt = to, tipDigest, targets, 0, 0
		m.dropTips(lane, s.From, s.To)
		return nil
	}
	m.begin()
	s = &Request{Lane: lane, From: from, To: to, TipDigest: tipDigest, targets: targets}
	m.streams[lane] = s
	// A range that subsumes a point request replaces it.
	m.dropTips(lane, from, to)
	return m.send(now, s)
}

// WantTip makes sure the single proposal (pos, digest) of lane — an
// optimistic tip a consensus vote is blocked on since `since` — is being
// fetched. Nil when it is still in flight by live broadcast, covered by
// the lane's stream, or already requested. A point request never becomes
// a range.
func (m *Manager) WantTip(now time.Duration, lane types.NodeID, pos types.Pos, digest types.Digest, targets []types.NodeID, since time.Duration) *Emit {
	if pos == 0 || m.inFlight(now, lane, pos, since) {
		return nil
	}
	if s, ok := m.streams[lane]; ok && s.From <= pos && pos <= s.To {
		return nil
	}
	k := key{lane, pos, digest}
	if _, ok := m.tips[k]; ok {
		return nil
	}
	targets = m.peers(targets)
	if len(targets) == 0 {
		return nil
	}
	m.begin()
	r := &Request{Lane: lane, From: pos, To: pos, TipDigest: digest, targets: targets}
	m.tips[k] = r
	return m.send(now, r)
}

// peers filters self out of a target list.
func (m *Manager) peers(targets []types.NodeID) []types.NodeID {
	clean := make([]types.NodeID, 0, len(targets))
	for _, t := range targets {
		if t != m.cfg.Self {
			clean = append(clean, t)
		}
	}
	return clean
}

// begin opens a catch-up episode when nothing is outstanding: the
// previous episode's reply ages say nothing about this one.
func (m *Manager) begin() {
	if m.Outstanding() == 0 {
		m.age = 0
	}
}

func (m *Manager) dropTips(lane types.NodeID, from, to types.Pos) {
	for k := range m.tips {
		if k.lane == lane && from <= k.pos && k.pos <= to {
			delete(m.tips, k)
		}
	}
}

// send emits the request's SyncRequest to its current target.
func (m *Manager) send(now time.Duration, r *Request) *Emit {
	r.sent, r.progress, r.asked, r.got = now, now, r.To, 0
	return &Emit{
		To: r.targets[r.target%len(r.targets)],
		Msg: &types.SyncRequest{
			Lane: r.Lane, From: r.From, To: r.To,
			TipDigest: r.TipDigest, Requester: m.cfg.Self,
		},
	}
}

// patience is how long a request may stay silent before it counts as
// lost: RetryAfter, stretched to twice the oldest a request has been in
// this episode when a reply for it still arrived. A recovering replica's
// replies queue behind everything else crossing its ingest path, and
// each re-request is answered with a whole window that lands after the
// original — so the clock runs against the pace replies are actually
// arriving at, never against a fixed guess, and never against a stream
// that is progressing.
func (m *Manager) patience() time.Duration {
	if p := 2 * m.age; p > m.cfg.RetryAfter {
		return p
	}
	return m.cfg.RetryAfter
}

// progressed restarts a request's silence clock on a reply.
func (m *Manager) progressed(now time.Duration, r *Request) {
	if a := now - r.sent; a > m.age {
		m.age = a
	}
	r.progress, r.attempt = now, 0
}

// Tick re-issues requests that have been silent for longer than
// patience to their next target; a request that has tried every target
// without a reply is dropped — consumers that still need the data ask
// again (execution from the orderer's missing set, pending votes from the
// engine, voting gaps from the next live car), and a fetch nobody
// re-issues was stale. The lanes whose catch-up stream was dropped that
// way are returned as exhausted: nobody who should hold that history
// answered for it, which is what a range beneath every peer's truncation
// line looks like from here (the node's cue to fetch state instead).
// Requests are visited in a canonical order — never map order: the emits
// become sends, and send order must be a deterministic function of the
// event history or fixed-seed simulations of recovery scenarios stop
// being reproducible.
func (m *Manager) Tick(now time.Duration) (out []*Emit, exhausted []types.NodeID) {
	patience := m.patience()
	retry := func(r *Request) bool {
		if now-r.progress < patience {
			return true
		}
		if r.attempt++; r.attempt >= len(r.targets) {
			return false
		}
		r.target++
		out = append(out, m.send(now, r))
		return true
	}
	for _, l := range m.sortedLanes() {
		if !retry(m.streams[l]) {
			delete(m.streams, l)
			exhausted = append(exhausted, l)
		}
	}
	for _, k := range m.sortedTips() {
		if !retry(m.tips[k]) {
			delete(m.tips, k)
		}
	}
	return out, exhausted
}

// sortedLanes returns the lanes with a stream in ascending order.
func (m *Manager) sortedLanes() []types.NodeID {
	lanes := make([]types.NodeID, 0, len(m.streams))
	for l := range m.streams {
		lanes = append(lanes, l)
	}
	sort.Slice(lanes, func(i, j int) bool { return lanes[i] < lanes[j] })
	return lanes
}

// sortedTips returns the point-request keys in canonical (lane, pos,
// digest) order.
func (m *Manager) sortedTips() []key {
	keys := make([]key, 0, len(m.tips))
	for k := range m.tips {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].lane != keys[j].lane {
			return keys[i].lane < keys[j].lane
		}
		if keys[i].pos != keys[j].pos {
			return keys[i].pos < keys[j].pos
		}
		return bytes.Compare(keys[i].dig[:], keys[j].dig[:]) < 0
	})
	return keys
}

// OnReply validates a SyncReply against the outstanding requests and
// returns the follow-up request to send, if the reply calls for one (it
// is already tracked). Invalid replies return an error; chain-valid
// replies that advance nothing return ErrUnsolicited (the caller still
// ingests them).
//
// A stream advances on a reply that contains its cursor and chains onto
// what it delivered before. The follow-up goes out once per window — when
// the bytes received since the last request reach ServeWindowBytes, the
// same count at which Serve stopped, or the range that request named is
// exhausted — not once per chunk: the responder starts a fresh window
// from wherever a request says, so a request sent mid-window is answered
// with everything still streaming, twice.
func (m *Manager) OnReply(now time.Duration, from types.NodeID, rep *types.SyncReply) (*Emit, error) {
	if len(rep.Proposals) == 0 {
		return nil, fmt.Errorf("fetch: empty reply from %s", from)
	}
	if len(rep.Proposals) > maxReplyProposals {
		return nil, fmt.Errorf("fetch: oversized reply from %s", from)
	}
	if err := ValidateChain(rep); err != nil {
		return nil, err
	}
	low, top := rep.Proposals[0], rep.Proposals[len(rep.Proposals)-1]
	k := key{rep.Lane, top.Position, top.Digest()}
	if r, ok := m.tips[k]; ok {
		m.progressed(now, r)
		delete(m.tips, k)
		return nil, nil
	}
	s, ok := m.streams[rep.Lane]
	if !ok {
		// Late reply to an abandoned or superseded request — still useful
		// (the caller ingests idempotently).
		return nil, ErrUnsolicited
	}
	var next *Emit
	switch {
	case low.Position <= s.From && s.From <= top.Position:
		if at := rep.Proposals[s.From-low.Position]; !s.below.IsZero() && at.Parent != s.below {
			return nil, ErrUnsolicited // another fork's chain: no progress
		}
		s.From, s.below = top.Position+1, top.Digest()
		for _, p := range rep.Proposals {
			s.got += p.WireSize()
		}
		m.progressed(now, s)
		switch {
		case s.From > s.To:
			delete(m.streams, rep.Lane) // complete
		case s.got >= ServeWindowBytes || s.From > s.asked:
			next = m.send(now, s) // the window has been served
		}
	case top.Position == s.To && top.Digest() == s.TipDigest:
		// Anchored at the tip but starting above the cursor: the responder
		// holds only the top of the range (it truncated its history). Keep
		// the lower part wanted and ask the next target for it.
		s.To, s.TipDigest = low.Position-1, low.Parent
		m.progressed(now, s)
		s.target++
		next = m.send(now, s)
	default:
		return nil, ErrUnsolicited
	}
	return next, nil
}

// ErrUnsolicited marks a chain-valid reply that advances no outstanding
// request; callers should still ingest its proposals.
var ErrUnsolicited = errors.New("fetch: unsolicited (but chain-valid) reply")

// ValidateChain checks a reply's internal integrity: one lane, ascending
// contiguous positions, hash-linked parents, structurally valid batches.
func ValidateChain(rep *types.SyncReply) error {
	for i := len(rep.Proposals) - 1; i >= 0; i-- {
		p := rep.Proposals[i]
		if p.Lane != rep.Lane {
			return fmt.Errorf("fetch: reply crosses lanes")
		}
		if i < len(rep.Proposals)-1 {
			next := rep.Proposals[i+1]
			if p.Position+1 != next.Position || next.Parent != p.Digest() {
				return fmt.Errorf("fetch: reply chain broken at pos %d", p.Position)
			}
		}
		if err := p.Batch.Validate(); err != nil {
			return fmt.Errorf("fetch: invalid batch in reply: %w", err)
		}
	}
	return nil
}

// Settle drops the lane's point requests whose proposal has arrived by
// another path (live broadcast, a stream): held reads the store.
func (m *Manager) Settle(lane types.NodeID, held func(types.NodeID, types.Pos, types.Digest) bool) {
	if len(m.tips) == 0 {
		return // the common case, on the live path of every car
	}
	for _, k := range m.sortedTips() {
		if k.lane == lane && held(k.lane, k.pos, k.dig) {
			delete(m.tips, k)
		}
	}
}

// Rebase drops the lane's fetches wholly at or below pos and raises the
// cursor of a stream spanning it. After a snapshot install, history at or
// below the frontier is moot (and, against truncating peers, unservable),
// but a spanning stream's upper remainder is still wanted — typically the
// very positions that gate the first post-install execution. Shrinking it
// releases outstanding-position budget for new fetches and re-issues it
// immediately.
func (m *Manager) Rebase(now time.Duration, lane types.NodeID, pos types.Pos) []*Emit {
	m.dropTips(lane, 0, pos)
	s, ok := m.streams[lane]
	if !ok || s.From > pos {
		return nil
	}
	if s.To <= pos {
		delete(m.streams, lane)
		return nil
	}
	s.From, s.below = pos+1, types.Digest{}
	return []*Emit{m.send(now, s)}
}

// ServeChunkBytes bounds one reply message's payload; ServeWindowBytes is
// how much one request is served. Large histories are streamed as chunked
// replies in FIFO (oldest-first) order (§A.3.2: history "can be staggered,
// and sent in FIFO order at the bandwidth the network allows" — the
// requester orders and executes position s before s+1 arrives). A window
// ends with the proposal that takes it to ServeWindowBytes; the requester
// counts the same bytes and asks for the next window when it has them
// all, so a deep catch-up self-clocks against the requester's ingest
// capacity: without the window bound, one request would dump the entire
// backlog and every retry would dump it again — congestion collapse at a
// recovering replica.
const (
	ServeChunkBytes  = 8 << 20
	ServeWindowBytes = 32 << 20
)

// Serve answers a peer's SyncRequest from the local store with a FIFO
// stream of chunked replies covering the oldest ServeWindowBytes of the
// requested range. The chain is located by walking parent links back from
// the requested tip, then emitted oldest-first.
func Serve(store interface {
	ChainSuffix(lane types.NodeID, from, to types.Pos, tipDigest types.Digest) ([]*types.Proposal, bool)
}, req *types.SyncRequest) []*types.SyncReply {
	props, complete := store.ChainSuffix(req.Lane, req.From, req.To, req.TipDigest)
	if len(props) == 0 {
		return nil
	}
	// Chunk the oldest window.
	var out []*types.SyncReply
	start, size, total := 0, 0, 0
	for i, p := range props {
		size += p.WireSize()
		total += p.WireSize()
		last, window := i+1 == len(props), total >= ServeWindowBytes
		if last || window || size >= ServeChunkBytes {
			out = append(out, &types.SyncReply{Lane: req.Lane, Proposals: props[start : i+1], Complete: complete && last})
			if window {
				break
			}
			start, size = i+1, 0
		}
	}
	return out
}

// Pending returns snapshots of outstanding requests — streams by lane,
// then point requests in key order (tests).
func (m *Manager) Pending() []Request {
	out := make([]Request, 0, m.Outstanding())
	for _, l := range m.sortedLanes() {
		out = append(out, *m.streams[l])
	}
	for _, k := range m.sortedTips() {
		out = append(out, *m.tips[k])
	}
	return out
}
