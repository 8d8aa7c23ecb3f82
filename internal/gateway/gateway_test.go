package gateway

import (
	"bufio"
	"bytes"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/types"
)

// fakeBackend is a settable-depth mempool stand-in that records every
// admitted envelope.
type fakeBackend struct {
	mu   sync.Mutex
	txs  [][]byte
	mem  int
	lane int
}

func (f *fakeBackend) Submit(tx []byte) {
	f.mu.Lock()
	f.txs = append(f.txs, append([]byte(nil), tx...))
	f.mu.Unlock()
}

func (f *fakeBackend) MempoolDepth() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.mem
}

func (f *fakeBackend) LaneDepth() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lane
}

func (f *fakeBackend) setDepths(mem, lane int) {
	f.mu.Lock()
	f.mem, f.lane = mem, lane
	f.mu.Unlock()
}

func (f *fakeBackend) admitted() [][]byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([][]byte, len(f.txs))
	copy(out, f.txs)
	return out
}

// commit drains the recorded envelopes into one committed batch fed to
// the server — the replica's commit sink in miniature.
func (f *fakeBackend) commit(s *Server) int {
	f.mu.Lock()
	txs := make([]types.Transaction, len(f.txs))
	for i, tx := range f.txs {
		txs[i] = types.Transaction(tx)
	}
	f.txs = nil
	f.mu.Unlock()
	if len(txs) == 0 {
		return 0
	}
	s.OnCommit(types.NewBatch(0, 1, txs, 0))
	return len(txs)
}

// pipeDial returns a Dial that connects through an in-memory pipe to
// the server — no sockets, no ports, -race friendly.
func pipeDial(s *Server) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		a, b := net.Pipe()
		go s.ServeConn(b)
		return a, nil
	}
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSubmitCommitAck is the happy path: submit → admit → commit → ack,
// with the envelope surviving the round trip.
func TestSubmitCommitAck(t *testing.T) {
	be := &fakeBackend{}
	srv := NewServer(be, Options{})
	defer srv.Stop()
	cl, err := NewClient(ClientOptions{ID: 7, Dial: pipeDial(srv)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	p, err := cl.Submit([]byte("hello-chain"))
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "admission", func() bool { return len(be.admitted()) == 1 })
	env := be.admitted()[0]
	cid, seq, ok := ParseTx(env)
	if !ok || cid != 7 || seq != p.Seq() {
		t.Fatalf("envelope = client %d seq %d ok %v", cid, seq, ok)
	}
	if !bytes.HasSuffix(env, []byte("hello-chain")) {
		t.Fatal("payload mangled in envelope")
	}
	be.commit(srv)
	out := p.Wait()
	if !out.Committed || out.Status != StatusCommitted || out.Attempts != 1 {
		t.Fatalf("outcome = %+v", out)
	}
	st := srv.Stats()
	if st.Admitted != 1 || st.Acked != 1 || st.Deduped != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.AckLatencyMean <= 0 {
		t.Fatal("ack latency not recorded")
	}
}

// TestAckAfterCommitOrdering pins the ack contract: no commit ack may
// be pushed before the commit sink reports the transaction. The
// submission must sit unresolved until OnCommit runs.
func TestAckAfterCommitOrdering(t *testing.T) {
	be := &fakeBackend{}
	srv := NewServer(be, Options{})
	defer srv.Stop()
	cl, err := NewClient(ClientOptions{ID: 1, Dial: pipeDial(srv)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	p, err := cl.Submit([]byte("tx"))
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "admission", func() bool { return len(be.admitted()) == 1 })
	select {
	case out := <-p.done:
		t.Fatalf("resolved before commit: %+v", out)
	case <-time.After(50 * time.Millisecond):
	}
	if got := srv.Stats().Acked; got != 0 {
		t.Fatalf("%d acks before commit", got)
	}
	be.commit(srv)
	if out := p.Wait(); !out.Committed {
		t.Fatalf("outcome = %+v", out)
	}
}

// TestRejectionBackoffRoundTrip drives the typed-rejection loop: a
// loaded backend sheds the submission with Busy, the client backs off
// and resubmits, and once load clears the retry commits. End to end:
// rejection → jittered backoff → resubmission → admission → ack.
func TestRejectionBackoffRoundTrip(t *testing.T) {
	be := &fakeBackend{}
	be.setDepths(1<<20, 0) // fully loaded: every class shed
	srv := NewServer(be, Options{})
	defer srv.Stop()
	cl, err := NewClient(ClientOptions{
		ID: 3, Dial: pipeDial(srv), Seed: 42,
		BackoffBase: 5 * time.Millisecond, BackoffCap: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	p, err := cl.Submit([]byte("persistent"))
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "a Busy rejection", func() bool { return srv.Stats().RejectedBusy >= 1 })
	if len(be.admitted()) != 0 {
		t.Fatal("rejected submission reached the backend")
	}
	// Load clears; the client's backoff retry must get through on its own.
	be.setDepths(0, 0)
	waitCond(t, "retry admission", func() bool { return len(be.admitted()) == 1 })
	be.commit(srv)
	out := p.Wait()
	if !out.Committed || out.Attempts < 2 {
		t.Fatalf("outcome = %+v, want committed retry", out)
	}

	// With MaxAttempts = 1 the same rejection is terminal — the typed
	// outcome surfaces to the caller instead of an endless retry.
	be.setDepths(1<<20, 0)
	cl2, err := NewClient(ClientOptions{ID: 4, Dial: pipeDial(srv), MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	out2, err := cl2.SubmitWait([]byte("shed-me"))
	if err != nil {
		t.Fatal(err)
	}
	if out2.Committed || out2.Status != StatusBusy {
		t.Fatalf("outcome = %+v, want terminal Busy", out2)
	}
}

// TestPrioritySheddingOrder pins weighted admission: at a load past
// bulk's threshold but under normal's, bulk is shed and normal admitted.
func TestPrioritySheddingOrder(t *testing.T) {
	be := &fakeBackend{}
	srv := NewServer(be, Options{MaxMempoolTxs: 100})
	defer srv.Stop()
	be.setDepths(60, 0) // 0.6 load: past bulk's 0.5, under normal's 0.75

	bulk, err := NewClient(ClientOptions{ID: 10, Dial: pipeDial(srv), Priority: PriorityBulk, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer bulk.Close()
	normal, err := NewClient(ClientOptions{ID: 11, Dial: pipeDial(srv), Priority: PriorityNormal})
	if err != nil {
		t.Fatal(err)
	}
	defer normal.Close()

	outB, err := bulk.SubmitWait([]byte("bulk"))
	if err != nil {
		t.Fatal(err)
	}
	if outB.Committed || outB.Status != StatusBusy {
		t.Fatalf("bulk outcome = %+v, want shed", outB)
	}
	pN, err := normal.Submit([]byte("normal"))
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "normal admission", func() bool { return len(be.admitted()) == 1 })
	be.commit(srv)
	if out := pN.Wait(); !out.Committed {
		t.Fatalf("normal outcome = %+v", out)
	}
}

// TestDedupAcrossReconnect is the window's reason to exist: a client
// that loses its connection after admission resubmits on reconnect, the
// duplicate is absorbed (never re-admitted), and the commit acks once.
//
// It then forces twenty more reconnects with submissions pending: each
// connection's writer and reader leave with it (the goroutine count
// returns to its baseline, and to the server's own after Close), and
// every pending submission still commits exactly once.
func TestDedupAcrossReconnect(t *testing.T) {
	be := &fakeBackend{}
	srv := NewServer(be, Options{})
	defer srv.Stop()
	baseline := runtime.NumGoroutine() // server only, no connection yet
	cl, err := NewClient(ClientOptions{
		ID: 5, Dial: pipeDial(srv),
		AckTimeout: 50 * time.Millisecond, // aggressive resubmission
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	p, err := cl.Submit([]byte("once-only"))
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "admission", func() bool { return len(be.admitted()) == 1 })

	// Kill the connection; the client reconnects and resubmits.
	srv.DropConns()
	waitCond(t, "reconnect", func() bool { return cl.Counters().Reconnects >= 1 })
	waitCond(t, "dedup absorption", func() bool { return srv.Stats().Deduped >= 1 })
	if got := len(be.admitted()); got != 1 {
		t.Fatalf("backend saw %d admissions, want 1 (dedup must absorb the resubmit)", got)
	}
	be.commit(srv)
	if out := p.Wait(); !out.Committed {
		t.Fatalf("outcome = %+v", out)
	}
	if dups := srv.Stats().ChainDups; dups != 0 {
		t.Fatalf("%d chain-level duplicates", dups)
	}

	// A raw replay of the committed seq (a late retry from a client that
	// missed the ack) is acked from the window as idempotent success:
	// Deduped rises, backend stays quiet.
	before := srv.Stats().Deduped
	conn := cl.connForTest()
	if conn == nil {
		t.Fatal("client has no live connection")
	}
	if _, err := conn.Write(appendSubmit(nil, p.Seq(), PriorityNormal, []byte("once-only"))); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "replay absorption", func() bool { return srv.Stats().Deduped > before })
	if got := len(be.admitted()); got != 0 {
		t.Fatalf("replay reached the backend (%d)", got)
	}

	// One live connection costs four goroutines: the client's reader and
	// writer, the server's ServeConn and its writer. Counts only fall as
	// earlier tests' goroutines finish, so each check is an upper bound.
	live := baseline + 4
	waitCond(t, "one connection's goroutines", func() bool { return runtime.NumGoroutine() <= live })
	reconnects := cl.Counters().Reconnects
	var ps []*Pending
	for i := uint64(1); i <= 20; i++ {
		p, err := cl.Submit([]byte{'r', byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
		srv.DropConns()
		waitCond(t, "forced reconnect", func() bool { return cl.Counters().Reconnects >= reconnects+i })
	}
	waitCond(t, "goroutines back to one connection's", func() bool { return runtime.NumGoroutine() <= live })
	waitCond(t, "every pending admission", func() bool { return len(be.admitted()) == len(ps) })
	be.commit(srv)
	for _, p := range ps {
		if out := p.Wait(); !out.Committed {
			t.Fatalf("seq %d outcome = %+v", p.Seq(), out)
		}
	}
	if st := srv.Stats(); st.ChainDups != 0 || st.Admitted != uint64(1+len(ps)) {
		t.Fatalf("after %d reconnects: %d chain dups, %d admitted, want 0 and %d",
			len(ps), st.ChainDups, st.Admitted, 1+len(ps))
	}
	cl.Close()
	waitCond(t, "no connection goroutine after Close", func() bool { return runtime.NumGoroutine() <= baseline })
}

// connForTest exposes the live conn to tests in this package.
func (c *Client) connForTest() net.Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.w == nil {
		return nil
	}
	return c.w.conn
}

// TestDedupUnderResubmitRace hammers the reconnect + resubmit machinery
// under -race: many clients, connections dropped while submissions and
// commit acks are in flight, aggressive ack timeouts. Every submission
// must commit exactly once at the chain (no chain dups, admissions
// match unique seqs) and resolve exactly once at the client.
func TestDedupUnderResubmitRace(t *testing.T) {
	be := &fakeBackend{}
	srv := NewServer(be, Options{})
	defer srv.Stop()

	// Commit pump: continuously drain admissions into commits.
	stop := make(chan struct{})
	var pump sync.WaitGroup
	pump.Add(1)
	go func() {
		defer pump.Done()
		for {
			select {
			case <-stop:
				be.commit(srv)
				return
			case <-time.After(5 * time.Millisecond):
				be.commit(srv)
			}
		}
	}()

	// Chaos: drop all connections every 20ms.
	pump.Add(1)
	go func() {
		defer pump.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
				srv.DropConns()
			}
		}
	}()

	const clients = 8
	const perClient = 40
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			cl, err := NewClient(ClientOptions{
				ID: id, Dial: pipeDial(srv), Seed: id,
				AckTimeout:  30 * time.Millisecond,
				BackoffBase: time.Millisecond, BackoffCap: 20 * time.Millisecond,
			})
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for j := 0; j < perClient; j++ {
				out, err := cl.SubmitWait([]byte{byte(id), byte(j)})
				if err != nil {
					t.Errorf("client %d submit %d: %v", id, j, err)
					return
				}
				if !out.Committed {
					t.Errorf("client %d submission %d: %+v", id, j, out)
					return
				}
			}
		}(uint64(i + 1))
	}
	wg.Wait()
	close(stop)
	pump.Wait()

	st := srv.Stats()
	if st.ChainDups != 0 {
		t.Fatalf("%d chain-level duplicate commits under resubmit races", st.ChainDups)
	}
	if st.Admitted != clients*perClient {
		t.Fatalf("admitted %d, want exactly %d (dedup must absorb every resubmit)",
			st.Admitted, clients*perClient)
	}
	t.Logf("stats: %+v", st)
}

// TestBackendSwapReadmission drives the crash-recovery seam: a pending
// submission admitted to generation g is re-admitted when the client
// resubmits after SwapBackend — and only then.
func TestBackendSwapReadmission(t *testing.T) {
	be := &fakeBackend{}
	srv := NewServer(be, Options{})
	defer srv.Stop()
	cl, err := NewClient(ClientOptions{
		ID: 9, Dial: pipeDial(srv),
		AckTimeout: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	p, err := cl.Submit([]byte("survives-crash"))
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "admission", func() bool { return len(be.admitted()) == 1 })
	first := be.admitted()[0]

	// The "replica" crashes, losing its mempool; a fresh backend swaps in.
	be2 := &fakeBackend{}
	srv.SwapBackend(be2)
	// The client's ack timeout fires and resubmits; the server re-admits
	// the retained envelope into the new backend, byte-identical.
	waitCond(t, "re-admission", func() bool { return len(be2.admitted()) == 1 })
	if !bytes.Equal(be2.admitted()[0], first) {
		t.Fatal("re-admitted envelope differs from the original")
	}
	if got := srv.Stats().Readmitted; got != 1 {
		t.Fatalf("Readmitted = %d, want 1", got)
	}
	be2.commit(srv)
	if out := p.Wait(); !out.Committed {
		t.Fatalf("outcome = %+v", out)
	}
}

// TestOutstandingGauge pins the gateway's own end-to-end backlog gauge:
// admissions raise it, commit acks retire it, and it alone — with the
// replica's mempool and lane gauges both reading empty — drives the
// admission decision. Under sustained overload the backlog sits in
// queues the replica gauges don't sample; the outstanding count is what
// still sees it.
func TestOutstandingGauge(t *testing.T) {
	be := &fakeBackend{} // depths stay 0: only outstanding can shed
	srv := NewServer(be, Options{MaxOutstanding: 4})
	defer srv.Stop()
	cl, err := NewClient(ClientOptions{ID: 30, Dial: pipeDial(srv), Priority: PriorityNormal, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// MaxOutstanding 4: bulk sheds at 2, normal at 3, high at 4. Two
	// normal admissions fill the gauge to the normal threshold.
	for i := 0; i < 3; i++ {
		if _, err := cl.Submit([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, "admissions", func() bool { return len(be.admitted()) >= 3 })
	if got := srv.Outstanding(); got != 3 {
		t.Fatalf("Outstanding = %d, want 3", got)
	}
	// The fourth normal submission hits load 3/4 >= 0.75: Busy.
	waitCond(t, "outstanding-driven Busy", func() bool {
		cl.mu.Lock() // clear suppression so the attempt reaches the wire
		cl.suppressUntil = time.Time{}
		cl.mu.Unlock()
		cl.Submit([]byte("over"))
		return srv.Stats().RejectedBusy >= 1
	})
	// Submit only queues its frame, so "over" frames may still be on the
	// wire: one admitted after the commit below would hold the gauge up.
	// Every "over" resolves (Busy is terminal at MaxAttempts 1) before
	// the commit runs.
	waitCond(t, "every over-submission resolved", func() bool { return cl.InFlight() == 3 })

	// Commits retire the gauge and admission reopens.
	be.commit(srv)
	waitCond(t, "gauge retired", func() bool { return srv.Outstanding() == 0 })
}

// TestBusySuppression pins the client half of backpressure: a Busy
// verdict opens a suppression window during which Submit fails fast
// with ErrSuppressed (no wire traffic); commits do NOT decay the
// escalation (under sustained overload commits trickle as the pipeline
// drains — their per-client rate reflects fleet size, not admission
// headroom); the escalation instead restarts when a Busy arrives after
// a long quiet gap (the overload episode ended).
func TestBusySuppression(t *testing.T) {
	be := &fakeBackend{}
	be.setDepths(1<<20, 0) // fully loaded
	srv := NewServer(be, Options{})
	defer srv.Stop()
	cl, err := NewClient(ClientOptions{
		ID: 31, Dial: pipeDial(srv), MaxAttempts: 1,
		BackoffBase: time.Minute, // suppression outlives the test unless lifted
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if out, err := cl.SubmitWait([]byte("shed")); err != nil || out.Status != StatusBusy {
		t.Fatalf("outcome = %+v, err %v, want Busy", out, err)
	}
	hellosBefore := srv.Stats().Hellos
	rejBefore := srv.Stats().RejectedBusy
	if _, err := cl.Submit([]byte("cached")); err != ErrSuppressed {
		t.Fatalf("Submit under suppression: err = %v, want ErrSuppressed", err)
	}
	if got := cl.Counters().Suppressed; got != 1 {
		t.Fatalf("Suppressed = %d, want 1", got)
	}
	if s := srv.Stats(); s.RejectedBusy != rejBefore || s.Hellos != hellosBefore {
		t.Fatal("suppressed submission reached the wire")
	}

	// Load clears and the window expires: submissions flow again.
	be.setDepths(0, 0)
	cl.mu.Lock()
	cl.suppressUntil = time.Time{} // simulate hint expiry without sleeping a minute
	cl.mu.Unlock()
	p, err := cl.Submit([]byte("admitted"))
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "admission after suppression", func() bool { return len(be.admitted()) == 1 })
	cl.mu.Lock()
	cl.busyStreak = 8
	cl.suppressUntil = time.Now().Add(time.Hour)
	cl.mu.Unlock()
	be.commit(srv) // commit ack arrives while suppressed
	if out := p.Wait(); !out.Committed {
		t.Fatalf("outcome = %+v", out)
	}
	// The commit resolved the pending but must neither lift the open
	// window nor decay the escalation.
	if _, err := cl.Submit([]byte("still shed")); err != ErrSuppressed {
		t.Fatalf("Submit after commit-under-suppression: err = %v, want ErrSuppressed", err)
	}
	cl.mu.Lock()
	streak := cl.busyStreak
	cl.mu.Unlock()
	if streak != 8 {
		t.Fatalf("busyStreak = %d after a commit, want 8 (unchanged)", streak)
	}

	// A Busy after a long quiet gap starts a fresh episode: the streak
	// restarts at 1 instead of escalating from the stale value.
	be.setDepths(1<<20, 0)
	cl.mu.Lock()
	cl.suppressUntil = time.Time{}
	cl.lastBusy = time.Now().Add(-time.Hour)
	cl.mu.Unlock()
	if out, err := cl.SubmitWait([]byte("new episode")); err != nil || out.Status != StatusBusy {
		t.Fatalf("outcome = %+v, err %v, want Busy", out, err)
	}
	cl.mu.Lock()
	streak = cl.busyStreak
	cl.mu.Unlock()
	if streak != 1 {
		t.Fatalf("busyStreak = %d after quiet gap, want 1 (fresh episode)", streak)
	}
}

// blockingConn is a conn whose every Write blocks until released, and
// which records each Write's bytes.
type blockingConn struct {
	net.Conn // only Write and Close are used
	entered  chan struct{}
	release  chan struct{}

	mu     sync.Mutex
	writes [][]byte
}

func newBlockingConn() *blockingConn {
	// entered is buffered so that announcing a Write never blocks the
	// writer on a test that has stopped listening; no test makes 16.
	return &blockingConn{entered: make(chan struct{}, 16), release: make(chan struct{})}
}

func (c *blockingConn) Write(b []byte) (int, error) {
	c.entered <- struct{}{}
	<-c.release
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), b...))
	c.mu.Unlock()
	return len(b), nil
}

func (c *blockingConn) Close() error { return nil }

func (c *blockingConn) written() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.writes...)
}

// TestFrameWriterCoalesces pins the ack path's write side: the acks
// queued while one Write is in progress leave together in the next
// single Write, the queue takes no more than AckQueue frames (the rest
// are dropped and counted in AckDrops), and queuing an ack allocates
// nothing.
func TestFrameWriterCoalesces(t *testing.T) {
	srv := NewServer(&fakeBackend{}, Options{AckQueue: 4})
	defer srv.Stop()
	conn := newBlockingConn()
	cw := newFrameWriter(conn, srv.opts.AckQueue)
	defer close(conn.release)
	defer cw.close()

	srv.ack(cw, 1, StatusCommitted, 0)
	<-conn.entered // the writer is inside its first Write
	for seq := uint64(2); seq <= 6; seq++ {
		srv.ack(cw, seq, StatusCommitted, 0)
	}
	if got := srv.Stats().AckDrops; got != 1 {
		t.Fatalf("AckDrops = %d, want 1 (seq 6 is past the 4-frame queue)", got)
	}
	conn.release <- struct{}{}
	<-conn.entered // the second Write holds everything queued meanwhile
	conn.release <- struct{}{}
	waitCond(t, "two writes", func() bool { return len(conn.written()) == 2 })

	var want1, want2 []byte
	want1 = appendAck(want1, 1, StatusCommitted, 0)
	for seq := uint64(2); seq <= 5; seq++ {
		want2 = appendAck(want2, seq, StatusCommitted, 0)
	}
	if w := conn.written(); !bytes.Equal(w[0], want1) || !bytes.Equal(w[1], want2) {
		t.Fatalf("writes = %x, want [%x %x]", w, want1, want2)
	}

	// Appending an ack to a burst allocates nothing (the buffer's own
	// amortized growth aside, which AllocsPerRun averages away).
	conn2 := newBlockingConn()
	cw2 := newFrameWriter(conn2, 0)
	defer close(conn2.release)
	defer cw2.close()
	seq := uint64(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		seq++
		srv.ack(cw2, seq, StatusCommitted, 0)
	}); allocs != 0 {
		t.Fatalf("ack allocates %.1f times per frame", allocs)
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

// TestServerReadsBursts pins the server's read side: a burst of frames
// is taken in with a handful of reads, not two per frame, and a frame
// split across many tiny writes is still parsed exactly once.
func TestServerReadsBursts(t *testing.T) {
	t.Run("100 submits in one write", func(t *testing.T) {
		be := &fakeBackend{}
		srv := NewServer(be, Options{Window: 128})
		defer srv.Stop()
		a, b := net.Pipe()
		defer a.Close()
		sc := &countingConn{Conn: b}
		go srv.ServeConn(sc)
		a.Write(appendHello(nil, 40))
		readAck(t, a) // HelloOK

		var burst []byte
		for seq := uint64(1); seq <= 100; seq++ {
			burst = appendSubmit(burst, seq, PriorityNormal, []byte{byte(seq)})
		}
		if _, err := a.Write(burst); err != nil {
			t.Fatal(err)
		}
		waitCond(t, "100 admissions", func() bool { return len(be.admitted()) == 100 })
		// Hello, the burst and the read left waiting for more: at two
		// reads per frame the burst alone would take 200.
		if got := sc.reads.Load(); got > 8 {
			t.Fatalf("server made %d reads for a Hello and one 100-frame burst", got)
		}

		be.commit(srv)
		a.SetReadDeadline(time.Now().Add(5 * time.Second))
		br := bufio.NewReader(a)
		seen := make(map[uint64]bool)
		for i := 0; i < 100; i++ {
			typ, body, err := readFrame(br, 1<<16, nil)
			if err != nil || typ != frameAck {
				t.Fatalf("ack %d: type %d, err %v", i, typ, err)
			}
			seq, status, _, _ := parseAck(body)
			if status != StatusCommitted || seen[seq] || seq < 1 || seq > 100 {
				t.Fatalf("ack %d: seq %d status %d (seen before: %v)", i, seq, status, seen[seq])
			}
			seen[seq] = true
		}
		if st := srv.Stats(); st.Admitted != 100 || st.Acked != 100 || st.HostileDrops != 0 {
			t.Fatalf("stats = %+v", st)
		}
	})

	t.Run("hello and submit one byte per write", func(t *testing.T) {
		be := &fakeBackend{}
		srv := NewServer(be, Options{})
		defer srv.Stop()
		a := rawConn(srv)
		defer a.Close()
		stream := appendSubmit(appendHello(nil, 41), 1, PriorityNormal, []byte("drip"))
		go func() {
			for i := range stream {
				if _, err := a.Write(stream[i : i+1]); err != nil {
					return
				}
			}
		}()
		readAck(t, a) // HelloOK
		waitCond(t, "admission", func() bool { return len(be.admitted()) == 1 })
		if _, seq, _ := ParseTx(be.admitted()[0]); seq != 1 {
			t.Fatalf("admitted seq %d, want 1", seq)
		}
		if st := srv.Stats(); st.Hellos != 1 || st.Admitted != 1 || st.HostileDrops != 0 {
			t.Fatalf("stats = %+v", st)
		}
	})
}
