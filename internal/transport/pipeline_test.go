package transport

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runtime"
	"repro/internal/stream"
	"repro/internal/types"
	"repro/internal/wire"
)

// nopSender discards outbound traffic (pipeline tests are inbound-only).
type nopSender struct{}

func (nopSender) Send(_, _ types.NodeID, _ types.Message)   {}
func (nopSender) Broadcast(_ types.NodeID, _ types.Message) {}

// pipelineProto is a Protocol+PreVerifier whose PreVerify burns a
// variable amount of CPU (so completion order scrambles across workers)
// and rejects votes at positions divisible by rejectEvery.
type pipelineProto struct {
	rejectEvery types.Pos

	mu    sync.Mutex
	seen  map[types.NodeID][]types.Pos
	total int
}

func (p *pipelineProto) Init(runtime.Context) {}
func (p *pipelineProto) OnMessage(_ runtime.Context, from types.NodeID, m types.Message) {
	v := m.(*types.Vote)
	p.mu.Lock()
	p.seen[from] = append(p.seen[from], v.Position)
	p.total++
	p.mu.Unlock()
}
func (p *pipelineProto) OnTimer(runtime.Context, runtime.TimerTag)   {}
func (p *pipelineProto) OnClientBatch(runtime.Context, *types.Batch) {}

func (p *pipelineProto) PreVerify(from types.NodeID, m types.Message) error {
	v, ok := m.(*types.Vote)
	if !ok {
		return nil
	}
	// Variable work: later positions sometimes finish long before earlier
	// ones on another worker, which is exactly what the per-peer FIFO
	// stage must mask.
	rounds := int(v.Position % 7)
	sum := sha256.Sum256([]byte{byte(v.Position)})
	for i := 0; i < rounds*50; i++ {
		sum = sha256.Sum256(sum[:])
	}
	if p.rejectEvery != 0 && v.Position%p.rejectEvery == 0 {
		return fmt.Errorf("forged vote at %d", v.Position)
	}
	return nil
}

func (p *pipelineProto) counts() (int, map[types.NodeID][]types.Pos) {
	p.mu.Lock()
	defer p.mu.Unlock()
	cp := make(map[types.NodeID][]types.Pos, len(p.seen))
	for k, v := range p.seen {
		cp[k] = append([]types.Pos(nil), v...)
	}
	return p.total, cp
}

// TestVerifyPoolPreservesPerPeerFIFO floods one loop through the
// parallel pre-verification stage from several peers at once (run with
// -race) and asserts that every surviving message is delivered, in
// per-peer FIFO order, with every invalid message dropped.
func TestVerifyPoolPreservesPerPeerFIFO(t *testing.T) {
	const peers, perPeer = 4, 1500
	const rejectEvery = 101
	proto := &pipelineProto{rejectEvery: rejectEvery, seen: make(map[types.NodeID][]types.Pos)}
	l := NewLoop(0, proto, nopSender{}, time.Now())
	if l.pool == nil {
		t.Fatal("loop did not detect the PreVerifier protocol")
	}
	l.SetVerifyWorkers(4)
	go l.Run()
	defer l.Stop()

	var wg sync.WaitGroup
	for peer := 1; peer <= peers; peer++ {
		wg.Add(1)
		go func(peer types.NodeID) {
			defer wg.Done()
			for i := 1; i <= perPeer; i++ {
				l.Deliver(peer, &types.Vote{Lane: 0, Position: types.Pos(i), Voter: peer})
			}
		}(types.NodeID(peer))
	}
	wg.Wait()

	rejected := perPeer / rejectEvery // positions 101, 202, ... per peer
	want := peers * (perPeer - rejected)
	deadline := time.Now().Add(10 * time.Second)
	for {
		total, _ := proto.counts()
		if total >= want || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	total, seen := proto.counts()
	if total != want {
		t.Fatalf("delivered %d messages, want %d", total, want)
	}
	for peer, positions := range seen {
		if len(positions) != perPeer-rejected {
			t.Fatalf("peer %s: %d delivered, want %d", peer, len(positions), perPeer-rejected)
		}
		prev := types.Pos(0)
		for i, pos := range positions {
			if pos%rejectEvery == 0 {
				t.Fatalf("peer %s: rejected position %d was delivered", peer, pos)
			}
			if pos <= prev {
				t.Fatalf("peer %s: FIFO violated at index %d: %d after %d", peer, i, pos, prev)
			}
			prev = pos
		}
	}
}

// TestVerifyPoolSelfDeliveryBypasses checks that a loop's own messages
// skip pre-verification (a replica does not verify its own signatures).
func TestVerifyPoolSelfDeliveryBypasses(t *testing.T) {
	proto := &pipelineProto{rejectEvery: 1, seen: make(map[types.NodeID][]types.Pos)} // rejects everything
	l := NewLoop(0, proto, nopSender{}, time.Now())
	go l.Run()
	defer l.Stop()
	l.Deliver(0, &types.Vote{Lane: 0, Position: 5, Voter: 0})
	deadline := time.Now().Add(5 * time.Second)
	for {
		total, _ := proto.counts()
		if total == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("self delivery never reached the protocol")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTCPMeshClosesOversizedFrame sends a hostile length prefix (beyond
// wire.MaxFrame) and asserts the mesh closes the connection instead of
// allocating the claimed buffer.
func TestTCPMeshClosesOversizedFrame(t *testing.T) {
	ports := freePorts(t, 2)
	addrs := map[types.NodeID]string{0: ports[0], 1: ports[1]} // 1 never started
	c := &collector{}
	m := NewTCPMesh(0, addrs, c, time.Now(), nil)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	conn, err := net.Dial("tcp", ports[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Handshake as peer 1 (control plane), then claim a 256 MB frame.
	var hdr [7]byte
	binary.LittleEndian.PutUint16(hdr[:2], 1)
	hdr[2] = 0 // plane byte
	binary.LittleEndian.PutUint32(hdr[3:], 256<<20)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("connection not closed on hostile frame: read err = %v", err)
	}
	if c.count() != 0 {
		t.Fatal("hostile frame produced a delivery")
	}
}

// TestTCPMeshDropsUndecodableFrame asserts an in-bounds frame the codec
// rejects (here an unknown type byte, as an older peer's delta-cut frame
// would carry) is dropped without closing the connection: a valid frame
// sent after it on the same connection is still delivered.
func TestTCPMeshDropsUndecodableFrame(t *testing.T) {
	ports := freePorts(t, 2)
	addrs := map[types.NodeID]string{0: ports[0], 1: ports[1]} // 1 never started
	c := &collector{}
	m := NewTCPMesh(0, addrs, c, time.Now(), nil)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	conn, err := net.Dial("tcp", ports[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Handshake as peer 1 (control plane).
	out := binary.LittleEndian.AppendUint16(nil, 1)
	out = append(out, 0)
	bad := []byte{0xF4, 1, 2, 3}
	out = binary.LittleEndian.AppendUint32(out, uint32(len(bad)))
	out = append(out, bad...)
	vote, err := wire.Encode(&types.Vote{Lane: 1, Position: 7, Voter: 1})
	if err != nil {
		t.Fatal(err)
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(len(vote)))
	out = append(out, vote...)
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.count() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.msgs) != 1 {
		t.Fatalf("%d deliveries, want exactly the vote after the undecodable frame", len(c.msgs))
	}
	v, ok := c.msgs[0].(*types.Vote)
	if !ok || v.Position != 7 || c.froms[0] != 1 {
		t.Fatalf("delivered %T %+v from %s, want the vote from r1", c.msgs[0], c.msgs[0], c.froms[0])
	}
}

// countingConn counts the Read calls made on a conn.
type countingConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countingConn) Read(b []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(b)
}

// TestReadLoopReadsBursts pins the mesh's read side: a hello and a
// burst of frames written at once are taken in with a handful of reads,
// not one for the hello and two per frame, and arrive in order.
func TestReadLoopReadsBursts(t *testing.T) {
	ports := freePorts(t, 2)
	addrs := map[types.NodeID]string{0: ports[0], 1: ports[1]} // 1 never started
	c := &collector{}
	m := NewTCPMesh(0, addrs, c, time.Now(), nil)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	a, b := net.Pipe()
	defer a.Close()
	rc := &countingConn{Conn: b}
	go m.readLoop(rc)

	const votes = 100
	out := binary.LittleEndian.AppendUint16(nil, 1) // hello: peer 1, control plane
	out = append(out, planeControl)
	for i := 1; i <= votes; i++ {
		vote, err := wire.Encode(&types.Vote{Lane: 1, Position: types.Pos(i), Voter: 1})
		if err != nil {
			t.Fatal(err)
		}
		out = append(stream.AppendHeader(out, len(vote)), vote...)
	}
	if _, err := a.Write(out); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.count() < votes && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.msgs) != votes {
		t.Fatalf("%d deliveries, want %d", len(c.msgs), votes)
	}
	for i, msg := range c.msgs {
		if v, ok := msg.(*types.Vote); !ok || v.Position != types.Pos(i+1) || c.froms[i] != 1 {
			t.Fatalf("delivery %d is %T %+v from %s, want vote %d from r1", i, msg, msg, c.froms[i], i+1)
		}
	}
	// The burst and the read left waiting for more: at one read for the
	// hello and two per frame it would take 201.
	if got := rc.reads.Load(); got > 8 {
		t.Fatalf("readLoop made %d reads for a hello and one %d-frame burst", got, votes)
	}
}

// TestTCPMeshRejectsUnknownHandshake asserts a connection claiming a
// non-committee ID is closed before any per-peer state is allocated.
func TestTCPMeshRejectsUnknownHandshake(t *testing.T) {
	ports := freePorts(t, 1)
	addrs := map[types.NodeID]string{0: ports[0]}
	c := &collector{}
	m := NewTCPMesh(0, addrs, c, time.Now(), nil)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	conn, err := net.Dial("tcp", ports[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hello [3]byte
	binary.LittleEndian.PutUint16(hello[:2], 9999)
	hello[2] = 0 // plane byte
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("connection not closed on unknown handshake id: read err = %v", err)
	}
}

// TestFrameLimitAlignedWithWire pins the transport limit to the codec's.
func TestFrameLimitAlignedWithWire(t *testing.T) {
	if maxFrame != wire.MaxFrame {
		t.Fatalf("transport maxFrame %d != wire.MaxFrame %d", int64(maxFrame), int64(wire.MaxFrame))
	}
}
