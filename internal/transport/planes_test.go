package transport

import (
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/runtime"
	"repro/internal/types"
)

func TestPlaneClassification(t *testing.T) {
	data := []types.MsgType{types.MsgProposal, types.MsgSyncReply, types.MsgCommitReply}
	for _, mt := range data {
		if planeOf(mt) != planeData {
			t.Fatalf("type %d should ride the data plane", mt)
		}
	}
	control := []types.MsgType{
		types.MsgVote, types.MsgPoA, types.MsgPrepare, types.MsgPrepVote,
		types.MsgConfirm, types.MsgConfirmAck, types.MsgCommitNotice,
		types.MsgTimeout, types.MsgSyncRequest, types.MsgCommitRequest,
	}
	for _, mt := range control {
		if planeOf(mt) != planeControl {
			t.Fatalf("type %d should ride the control plane", mt)
		}
	}
}

// orderCollector records the arrival order of proposals vs votes.
type orderCollector struct {
	mu      sync.Mutex
	arrived []types.MsgType
}

func (c *orderCollector) Init(runtime.Context) {}
func (c *orderCollector) OnMessage(_ runtime.Context, _ types.NodeID, m types.Message) {
	c.mu.Lock()
	c.arrived = append(c.arrived, m.Type())
	c.mu.Unlock()
}
func (c *orderCollector) OnTimer(runtime.Context, runtime.TimerTag)   {}
func (c *orderCollector) OnClientBatch(runtime.Context, *types.Batch) {}

func (c *orderCollector) snapshot() []types.MsgType {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]types.MsgType(nil), c.arrived...)
}

// TestControlOvertakesSaturatedDataPlane floods the data plane with
// multi-megabyte cars, then sends consensus votes: the votes must arrive
// while most of the bulk backlog is still in flight, i.e. the control
// plane is not head-of-line-blocked by data. Run under -race this also
// exercises the pooled frame lifecycle across both writer goroutines.
func TestControlOvertakesSaturatedDataPlane(t *testing.T) {
	ports := freePorts(t, 2)
	addrs := map[types.NodeID]string{0: ports[0], 1: ports[1]}
	epoch := time.Now()
	recv := &orderCollector{}
	ma := NewTCPMesh(0, addrs, &collector{}, epoch, nil)
	mb := NewTCPMesh(1, addrs, recv, epoch, nil)
	if err := ma.Start(); err != nil {
		t.Fatal(err)
	}
	defer ma.Stop()
	if err := mb.Start(); err != nil {
		t.Fatal(err)
	}
	defer mb.Stop()

	// Saturate the data plane: 64 cars of 4 MB each (256 MB total).
	const cars = 64
	car := types.NewBatch(0, 1, []types.Transaction{make(types.Transaction, 4<<20)}, 0)
	for i := 0; i < cars; i++ {
		p := &types.Proposal{Lane: 0, Position: types.Pos(i + 1), Batch: car, Sig: make([]byte, 64)}
		ma.Send(0, 1, p)
	}
	// Cars the link drained while the loop above was still encoding say
	// nothing about head-of-line blocking — the votes did not exist yet.
	// Snapshot the prefix and measure the overtake against the backlog
	// that was actually in flight when the votes were enqueued. (Under
	// the race detector, encoding 256 MB is slow enough that the drained
	// prefix is large, and an absolute threshold measured the test's own
	// enqueue speed instead of plane priority.)
	predelivered := len(recv.snapshot())
	const votes = 8
	for i := 0; i < votes; i++ {
		ma.Send(0, 1, &types.Vote{Lane: 0, Position: types.Pos(i + 1), Voter: 0, Sig: make([]byte, 64)})
	}

	waitFor(t, func() bool {
		n := 0
		for _, mt := range recv.snapshot() {
			if mt == types.MsgVote {
				n++
			}
		}
		return n == votes
	}, "all votes delivered")

	order := recv.snapshot()
	lastVote := -1
	proposalsBeforeLastVote := 0
	for i, mt := range order {
		if mt == types.MsgVote {
			lastVote = i
			proposalsBeforeLastVote = i + 1 - countVotes(order[:i+1])
		}
	}
	// With a single shared queue, the whole backlog (minus drops) drains
	// before the first vote. With plane separation the votes must beat
	// the bulk of the cars still in flight when they were enqueued;
	// allow a generous margin for writev interleaving on loopback.
	backlog := cars - predelivered
	overtaken := proposalsBeforeLastVote - predelivered
	if backlog < 8 {
		t.Skipf("link drained %d of %d cars before the votes existed: no backlog to measure against", predelivered, cars)
	}
	if overtaken > backlog/2 {
		t.Fatalf("votes arrived after %d of %d in-flight cars: control plane is blocked behind data (last vote at index %d, %d cars predelivered)",
			overtaken, backlog, lastVote, predelivered)
	}
	t.Logf("last vote overtook %d of %d in-flight cars (arrived at index %d, %d predelivered)",
		backlog-overtaken, backlog, lastVote, predelivered)
}

func countVotes(order []types.MsgType) int {
	n := 0
	for _, mt := range order {
		if mt == types.MsgVote {
			n++
		}
	}
	return n
}

// TestEgressCoalescingCounters pins the coalescing machinery: a burst of
// frames enqueued while the peer link is still dialing must reach the
// peer in fewer flushes than frames.
func TestEgressCoalescingCounters(t *testing.T) {
	ports := freePorts(t, 2)
	addrs := map[types.NodeID]string{0: ports[0], 1: ports[1]}
	epoch := time.Now()
	recv := &orderCollector{}
	ma := NewTCPMesh(0, addrs, &collector{}, epoch, nil)
	if err := ma.Start(); err != nil {
		t.Fatal(err)
	}
	defer ma.Stop()

	// Enqueue a burst before the peer exists: all frames pile up in the
	// control queue and must go out in coalesced bursts once the
	// peer appears.
	const burst = 200
	for i := 0; i < burst; i++ {
		ma.Send(0, 1, &types.Vote{Lane: 0, Position: types.Pos(i + 1), Voter: 0, Sig: make([]byte, 64)})
	}
	mb := NewTCPMesh(1, addrs, recv, epoch, nil)
	if err := mb.Start(); err != nil {
		t.Fatal(err)
	}
	defer mb.Stop()

	waitFor(t, func() bool { return len(recv.snapshot()) == burst }, "burst delivered")
	st := ma.PeerStats()[1]
	if st.Control.Frames != burst {
		t.Fatalf("control frames = %d, want %d", st.Control.Frames, burst)
	}
	if st.Control.Flushes == 0 || st.Control.Flushes >= st.Control.Frames {
		t.Fatalf("flushes = %d for %d frames: no coalescing happened", st.Control.Flushes, st.Control.Frames)
	}
	if st.Control.Bytes == 0 {
		t.Fatal("no bytes counted")
	}
	t.Logf("%d frames in %d flushes (%.1f frames/syscall)", st.Control.Frames, st.Control.Flushes,
		float64(st.Control.Frames)/float64(st.Control.Flushes))

	// The receiving side counts inbound frames too.
	rs := mb.PeerStats()[0]
	if rs.RecvFrames != burst {
		t.Fatalf("recv frames = %d, want %d", rs.RecvFrames, burst)
	}
}

// TestVoteLatencyUnderDataSaturation measures consensus-vote round-trip
// p99 while the data plane continuously streams 4 MB cars, the
// seamlessness property the control plane exists for. The assertion is
// deliberately loose (CI containers are slow); EXPERIMENTS.md records
// measured numbers.
func TestVoteLatencyUnderDataSaturation(t *testing.T) {
	ports := freePorts(t, 2)
	addrs := map[types.NodeID]string{0: ports[0], 1: ports[1]}
	epoch := time.Now()
	recv := &orderCollector{}
	ma := NewTCPMesh(0, addrs, &collector{}, epoch, nil)
	mb := NewTCPMesh(1, addrs, recv, epoch, nil)
	if err := ma.Start(); err != nil {
		t.Fatal(err)
	}
	defer ma.Stop()
	if err := mb.Start(); err != nil {
		t.Fatal(err)
	}
	defer mb.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // data-plane saturator
		defer wg.Done()
		car := types.NewBatch(0, 1, []types.Transaction{make(types.Transaction, 4<<20)}, 0)
		pos := types.Pos(1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			ma.Send(0, 1, &types.Proposal{Lane: 0, Position: pos, Batch: car, Sig: make([]byte, 64)})
			pos++
		}
	}()

	time.Sleep(100 * time.Millisecond) // let the data plane saturate
	const probes = 50
	lats := make([]time.Duration, 0, probes)
	for i := 0; i < probes; i++ {
		before := countVotes(recv.snapshot())
		start := time.Now()
		ma.Send(0, 1, &types.Vote{Lane: 0, Position: types.Pos(i + 1), Voter: 0, Sig: make([]byte, 64)})
		waitFor(t, func() bool { return countVotes(recv.snapshot()) > before }, "vote under saturation")
		lats = append(lats, time.Since(start))
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p50, p99 := lats[len(lats)/2], lats[len(lats)*99/100]
	t.Logf("vote latency under 4MB-car saturation: p50=%v p99=%v", p50, p99)
	if p99 > 2*time.Second {
		t.Fatalf("vote p99 %v under data saturation: control plane not isolated", p99)
	}
}
