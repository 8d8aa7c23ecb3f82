package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/runtime"
	"repro/internal/types"
	"repro/internal/wire"
)

// seamDriver stands in for a runtime around one node and records what
// leaves it. With workers it routes the way transport.Loop does — ShardOf,
// OnShardMessage, FlushShard — and loops self-addressed handoffs back in
// send order; without, everything goes through OnMessage and a handoff
// must never show up as a message at all.
type seamDriver struct {
	t       *testing.T
	nd      *Node
	workers bool
	now     time.Duration

	out     []string        // everything sent to other replicas, in order
	commits []string        // the sink's view, in order
	self    []types.Message // self-addressed sends awaiting delivery
	cuts    []string        // AssembleCut + reputation after every step
}

func newSeamDriver(t *testing.T, self types.NodeID, shards int) *seamDriver {
	const n = 4
	d := &seamDriver{t: t, workers: shards > 1}
	d.nd = NewNode(Config{
		Committee:      types.NewCommittee(n),
		Self:           self,
		Suite:          crypto.NewNopSuite(n),
		FastPath:       true,
		OptimisticTips: true,
		Reputation:     true,
		Shards:         shards,
		Sink: runtime.CommitSinkFunc(func(_ types.NodeID, _ time.Duration, c runtime.Committed) {
			d.commits = append(d.commits, fmt.Sprintf("slot %d lane %d pos %d", c.Slot, c.Lane, c.Position))
		}),
	})
	d.nd.Init(d)
	d.settle()
	return d
}

func (d *seamDriver) ID() types.NodeID                         { return d.nd.cfg.Self }
func (d *seamDriver) Now() time.Duration                       { return d.now }
func (d *seamDriver) Rand() uint64                             { return 7 }
func (d *seamDriver) SetTimer(time.Duration, runtime.TimerTag) {}
func (d *seamDriver) CancelTimer(runtime.TimerTag)             {}

func (d *seamDriver) Send(to types.NodeID, m types.Message) {
	if to != d.nd.cfg.Self {
		d.record(fmt.Sprintf("to %d", to), m)
		return
	}
	if m.Type() == types.MsgInternal && !d.workers {
		d.t.Errorf("inline delivery sent a handoff as a message: %T", m)
	}
	d.self = append(d.self, m)
}

func (d *seamDriver) Broadcast(m types.Message) { d.record("to all", m) }

func (d *seamDriver) record(to string, m types.Message) {
	enc, err := wire.Encode(m)
	if err != nil {
		d.t.Fatalf("%T left the node but does not encode: %v", m, err)
	}
	d.out = append(d.out, fmt.Sprintf("%s %T %x", to, m, enc))
}

func (d *seamDriver) dispatch(from types.NodeID, m types.Message) {
	if s := d.nd.ShardOf(from, m); d.workers && s >= 0 {
		d.nd.OnShardMessage(d, s, from, m)
		d.nd.FlushShard(d, s)
		return
	}
	d.nd.OnMessage(d, from, m)
}

// settle delivers the self-addressed backlog, then snapshots what the
// control plane would propose.
func (d *seamDriver) settle() {
	for len(d.self) > 0 {
		m := d.self[0]
		d.self = d.self[1:]
		d.dispatch(d.nd.cfg.Self, m)
	}
	cut := (*cutProvider)(d.nd).AssembleCut(true)
	s := fmt.Sprint("rep ", d.nd.reputation)
	for _, tip := range cut.Tips {
		s += fmt.Sprintf(" | %d@%d %x cert=%v", tip.Lane, tip.Position, tip.Digest[:4], tip.Certified())
	}
	d.cuts = append(d.cuts, s)
}

func (d *seamDriver) msg(from types.NodeID, m types.Message) {
	d.now += time.Millisecond
	d.dispatch(from, m)
	d.settle()
}

func (d *seamDriver) batch(b *types.Batch) {
	d.now += time.Millisecond
	if s := d.nd.BatchShard(); d.workers && s >= 0 {
		d.nd.OnShardBatch(d, s, b)
		d.nd.FlushShard(d, s)
	} else {
		d.nd.OnClientBatch(d, b)
	}
	d.settle()
}

func (d *seamDriver) timer(kind uint8) {
	d.now += time.Millisecond
	d.nd.OnTimer(d, runtime.TimerTag{Kind: kind})
	d.settle()
}

func seamBatch(origin types.NodeID, seq uint64) *types.Batch {
	return types.NewBatch(origin, seq, []types.Transaction{[]byte(fmt.Sprintf("tx-%d-%d", origin, seq))}, 0)
}

// seamCar builds the next car of a peer lane by hand (signatures are off).
func seamCar(l types.NodeID, parent *types.Proposal, parentPoA *types.PoA) *types.Proposal {
	p := &types.Proposal{Lane: l, Position: 1, ParentPoA: parentPoA}
	if parent != nil {
		p.Position, p.Parent = parent.Position+1, parent.Digest()
	}
	p.Batch = seamBatch(l, uint64(p.Position))
	return p
}

func seamPoA(p *types.Proposal) *types.PoA {
	return &types.PoA{Lane: p.Lane, Position: p.Position, Digest: p.Digest(),
		Shares: []types.SigShare{{Signer: p.Lane}, {Signer: 3}}}
}

func seamTip(p *types.Proposal, certified bool) types.TipRef {
	t := types.TipRef{Lane: p.Lane, Position: p.Position, Digest: p.Digest()}
	if certified {
		t.Cert = seamPoA(p)
	}
	return t
}

func seamDecision(s types.Slot, tips ...types.TipRef) *types.CommitNotice {
	prop := types.ConsensusProposal{Slot: s, Cut: types.Cut{Tips: tips}}
	return &types.CommitNotice{QC: types.CommitQC{Slot: s, Digest: prop.Digest()}, Proposal: prop}
}

// seamScript drives replica 0 of a committee of four through every kind of
// event that crosses the shard/control seam.
func seamScript(d *seamDriver) {
	a1 := seamCar(1, nil, nil)
	a2 := seamCar(1, a1, seamPoA(a1))
	b1 := seamCar(2, nil, nil)
	b2 := seamCar(2, b1, nil)
	b3 := seamCar(2, b2, seamPoA(b2))

	// Cars of two peer lanes, then an own car and the vote that certifies
	// it (f+1 = 2 with the proposer's own share): its PoA goes out alone.
	d.msg(1, a1)
	d.msg(2, b1)
	d.batch(seamBatch(0, 1))
	own1 := d.nd.lanes.OldestOutstanding()
	if own1 == nil {
		d.t.Fatal("the client batch started no car")
	}
	d.msg(1, &types.Vote{Lane: 0, Position: 1, Digest: own1.Digest(), Voter: 1})
	// A standalone PoA on an idle peer lane.
	d.msg(1, seamPoA(a1))
	// An out-of-order car opens a gap; the sync reply closes it.
	d.msg(2, b3)
	d.msg(2, &types.SyncReply{Lane: 2, Proposals: []*types.Proposal{b2}, Complete: true})
	// An own-lane sync delivery (store-only ingest).
	d.msg(3, &types.SyncReply{Lane: 0, Proposals: []*types.Proposal{own1}, Complete: true})
	// Two critical-path tip syncs served for lane 1 cost it its optimistic
	// standing (§B.1); the next car shows in cuts by its parent's PoA only.
	for i := 0; i < 2; i++ {
		d.msg(3, &types.SyncRequest{Lane: 1, From: 1, To: 1, TipDigest: a1.Digest(), Requester: 3})
	}
	d.msg(1, a2)
	// A decided slot drains execution and returns frontiers to the shards.
	d.msg(3, seamDecision(1, seamTip(own1, true), seamTip(a2, false), seamTip(b3, false), types.TipRef{Lane: 3}))
	// A second own car stays uncertified across two retransmit ticks: the
	// second tick re-broadcasts it.
	d.batch(seamBatch(0, 2))
	d.timer(tagCarRetx)
	d.timer(tagCarRetx)
}

// TestInlineAndWorkerDeliveryAgree: the same events through OnMessage
// (Shards 0, handoffs are calls) and through the Sharder entry points
// (Shards 2, handoffs are looped-back messages) must leave a replica
// having sent, committed, penalised and proposed exactly the same.
func TestInlineAndWorkerDeliveryAgree(t *testing.T) {
	inline, workers := newSeamDriver(t, 0, 0), newSeamDriver(t, 0, 2)
	seamScript(inline)
	seamScript(workers)

	for _, c := range []struct {
		what        string
		inline, wrk []string
		atLeast     int
	}{
		{"outbound messages", inline.out, workers.out, 12},
		{"committed sequence", inline.commits, workers.commits, 6},
		{"cuts and reputation", inline.cuts, workers.cuts, 16},
	} {
		if len(c.inline) < c.atLeast {
			t.Errorf("%s: the script produced only %d, want at least %d:\n%v", c.what, len(c.inline), c.atLeast, c.inline)
		}
		if !reflect.DeepEqual(c.inline, c.wrk) {
			t.Errorf("%s differ\ninline:  %v\nworkers: %v", c.what, trim(c.inline), trim(c.wrk))
		}
	}
	if got := inline.nd.Reputation(1); got != repMax-2*repPenalty {
		t.Errorf("lane 1 reputation = %d, want %d", got, repMax-2*repPenalty)
	}
	if in, wk := inline.nd.Stats(), workers.nd.Stats(); in != wk {
		t.Errorf("counters differ\ninline:  %+v\nworkers: %+v", in, wk)
	}
}

// trim keeps failure output readable: message bodies are hex dumps.
func trim(ss []string) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		if len(s) > 120 {
			s = s[:120] + "…"
		}
		out[i] = s
	}
	return out
}

// TestFlushNoticesReentrant: inline, applying a notice executes a slot,
// which returns an own-lane frontier to the very shard that is mid-flush,
// which retires the committed car, starts the next one and flushes again.
// No notice may be lost and none applied twice.
func TestFlushNoticesReentrant(t *testing.T) {
	d := newSeamDriver(t, 0, 0)
	a1 := seamCar(1, nil, nil)
	d.batch(seamBatch(0, 1)) // own car 1, never certified
	d.batch(seamBatch(0, 2)) // waits behind it
	own1 := d.nd.lanes.OldestOutstanding()
	// Slot 1 is decided but cannot execute: lane 1's car has not arrived.
	d.msg(3, seamDecision(1, seamTip(own1, false), seamTip(a1, false), types.TipRef{Lane: 2}, types.TipRef{Lane: 3}))
	if len(d.commits) != 0 {
		t.Fatalf("executed without the data: %v", d.commits)
	}
	// Queue lane 1's notice first, then two more behind it whose effect is
	// not idempotent (a served tip sync each), as one burst would.
	sh := d.nd.shards[0]
	sh.note(1)
	sh.note(2).repPenalties = 1
	sh.note(3).repPenalties = 1
	sent := len(d.out)
	d.msg(1, a1)

	if want := []string{"slot 1 lane 0 pos 1", "slot 1 lane 1 pos 1"}; !reflect.DeepEqual(d.commits, want) {
		t.Fatalf("commits = %v, want %v", d.commits, want)
	}
	for _, l := range []types.NodeID{2, 3} {
		if got := d.nd.Reputation(l); got != repMax-repPenalty {
			t.Errorf("lane %d's notice applied %d times", l, (repMax-got)/repPenalty)
		}
	}
	cars := 0
	for _, o := range d.out[sent:] {
		if strings.HasPrefix(o, "to all *types.Proposal ") {
			cars++
		}
	}
	if cars != 1 {
		t.Errorf("the frontier's car went out %d times: %v", cars, trim(d.out[sent:]))
	}
	if got := d.nd.Stats().BatchesProposed; got != 2 {
		t.Errorf("BatchesProposed = %d, want 2", got)
	}
	if got := d.nd.tips.ownTip.Position; got != 2 {
		t.Errorf("control plane's own tip at %d, want 2 (ownTipNotice lost)", got)
	}
	if len(sh.order) != 0 || sh.next != 0 || len(sh.notices) != 0 || sh.ownDirty {
		t.Errorf("flush left the queue at order=%v next=%d notices=%d ownDirty=%v", sh.order, sh.next, len(sh.notices), sh.ownDirty)
	}
}

// TestAssembleCutModes: what a cut carries for a lane — fed through the
// real path, car and PoA in, cut out of the control plane's tip table.
func TestAssembleCutModes(t *testing.T) {
	for _, shards := range []int{0, 2} {
		// A peer lane with car 1 certified and car 2 only received.
		d := newSeamDriver(t, 1, shards)
		p1 := seamCar(0, nil, nil)
		p2 := seamCar(0, p1, nil)
		d.msg(0, p1)
		d.msg(0, seamPoA(p1))
		d.msg(0, p2)
		cp := (*cutProvider)(d.nd)
		if tip := cp.AssembleCut(false).Tips[0]; tip.Position != 1 || !tip.Certified() {
			t.Fatalf("shards=%d: certified cut tip = %+v", shards, tip)
		}
		if tip := cp.AssembleCut(true).Tips[0]; tip.Position != 2 || tip.Certified() {
			t.Fatalf("shards=%d: optimistic cut tip = %+v", shards, tip)
		}
		// The proposer's own cut uses its leader tip (uncertified allowed).
		d = newSeamDriver(t, 0, shards)
		d.batch(seamBatch(0, 1))
		own1 := d.nd.lanes.OldestOutstanding()
		d.msg(1, &types.Vote{Lane: 0, Position: 1, Digest: own1.Digest(), Voter: 1})
		d.batch(seamBatch(0, 2))
		if tip := (*cutProvider)(d.nd).AssembleCut(false).Tips[0]; tip.Position != 2 || tip.Certified() {
			t.Fatalf("shards=%d: leader tip = %+v", shards, tip)
		}
	}
}
