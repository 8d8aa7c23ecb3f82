package gateway

import (
	"bufio"
	"errors"
	"fmt"
	mrand "math/rand/v2"
	"net"
	"sync"
	"time"
)

// ClientOptions configures a gateway client.
type ClientOptions struct {
	// ID identifies this client to the gateway. The dedup window is
	// keyed by it, so it must be stable across reconnects and restarts
	// of the same logical client — and unique among live clients.
	ID uint64
	// Seed drives the jittered backoff; defaults to ID (deterministic
	// per client, decorrelated across clients).
	Seed uint64
	// Dial opens a connection to the gateway. Required.
	Dial func() (net.Conn, error)
	// Window bounds locally tracked in-flight submissions (default 32;
	// keep at or under the server's window to avoid WindowFull churn).
	Window int
	// Priority is the admission class for all submissions. The zero
	// value is PriorityBulk — shed first under load; declare
	// PriorityNormal or PriorityHigh explicitly for better service.
	Priority uint8
	// AckTimeout resubmits an unacknowledged submission after this long
	// (default 5s). Resubmission is idempotent end-to-end: the server's
	// dedup window absorbs the duplicate.
	AckTimeout time.Duration
	// MaxAttempts bounds admission retries (Busy/WindowFull rejections)
	// per submission; exceeding it resolves the submission with the
	// rejection as its terminal outcome. 0 retries forever.
	MaxAttempts int
	// BackoffBase / BackoffCap shape the jittered exponential backoff on
	// rejections and redials (defaults 20ms / 2s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// OnOutcome, when set, observes every terminal outcome (also
	// delivered through Pending.Wait).
	OnOutcome func(Outcome)
}

func (o *ClientOptions) fill() error {
	if o.Dial == nil {
		return errors.New("gateway: ClientOptions.Dial is required")
	}
	if o.Window == 0 {
		o.Window = 32
	}
	if o.AckTimeout == 0 {
		o.AckTimeout = 5 * time.Second
	}
	if o.BackoffBase == 0 {
		o.BackoffBase = 20 * time.Millisecond
	}
	if o.BackoffCap == 0 {
		o.BackoffCap = 2 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = o.ID + 1
	}
	return nil
}

// Outcome is a submission's terminal result.
type Outcome struct {
	Seq uint64
	// Status is StatusCommitted, or the rejection that exhausted
	// MaxAttempts (StatusBusy / StatusWindowFull), or StatusAborted.
	Status byte
	// Committed is true iff the transaction committed.
	Committed bool
	// Latency is submit-to-terminal-outcome time.
	Latency time.Duration
	// Attempts counts wire submissions (1 = first try).
	Attempts int
}

// StatusAborted is the client-side terminal status for submissions
// cancelled by Close.
const StatusAborted byte = 0xFF

// Pending is one in-flight submission.
type Pending struct {
	seq     uint64
	payload []byte
	start   time.Time

	mu       sync.Mutex
	attempts int
	timer    *time.Timer // ack-timeout / backoff timer, nil once resolved
	resolved bool

	done chan Outcome
}

// Wait blocks until the submission's terminal outcome.
func (p *Pending) Wait() Outcome { return <-p.done }

// Seq returns the submission's sequence number.
func (p *Pending) Seq() uint64 { return p.seq }

// ClientCounters aggregates a client's activity (read with Counters).
type ClientCounters struct {
	Committed, Rejected, Aborted uint64
	Resubmits, Reconnects        uint64
	// Suppressed counts Submit calls refused locally while honoring a
	// server Busy retry hint (ErrSuppressed) — shed load that never
	// reached the wire.
	Suppressed uint64
}

// Client is a gateway client: it numbers submissions, tracks them to a
// terminal outcome, backs off (seeded, jittered, exponential) on typed
// rejections, resubmits on ack timeout, and reconnects + resubmits on
// connection loss — all idempotent through the server's dedup window.
//
// Busy rejections additionally open a suppression window: new Submit
// calls fail fast with ErrSuppressed (no wire traffic) until the
// server's retry hint — escalated exponentially across consecutive Busy
// verdicts within an overload episode, restarting after a long quiet
// gap — expires. An overloaded gateway tells
// each client once per window instead of paying to reject every
// attempt, which is what lets the replica keep its capacity for the
// admitted load.
type Client struct {
	o ClientOptions

	mu sync.Mutex
	// w is the live connection's writer (nil while reconnecting): every
	// submission frame is appended to it and leaves in its next burst.
	w       *frameWriter
	pending map[uint64]*Pending
	nextSeq uint64
	rng     *mrand.Rand
	closed  bool
	dialing bool
	ctrs    ClientCounters

	// Busy-driven admission suppression (see ErrSuppressed). The streak
	// escalates within one overload episode: a Busy arriving more than
	// 2x BackoffCap after the previous one starts a fresh episode near
	// the base. Commits deliberately do not decay it — under sustained
	// overload commits trickle as the pipeline drains, and how often
	// they arrive per client is a function of fleet size, not headroom.
	suppressUntil time.Time
	busyStreak    int
	lastBusy      time.Time
}

// NewClient builds a client and establishes its first connection.
func NewClient(o ClientOptions) (*Client, error) {
	if err := o.fill(); err != nil {
		return nil, err
	}
	c := &Client{
		o:       o,
		pending: make(map[uint64]*Pending),
		nextSeq: 1,
		rng:     mrand.New(mrand.NewPCG(o.Seed, 0x6761746577617921)),
	}
	conn, br, err := c.dialOnce()
	if err != nil {
		return nil, err
	}
	w := newFrameWriter(conn, 0)
	c.mu.Lock()
	c.w = w
	c.mu.Unlock()
	go c.readLoop(w, br)
	return c, nil
}

// Dial is the common case: a TCP client with the given options.
func Dial(addr string, o ClientOptions) (*Client, error) {
	if o.Dial == nil {
		o.Dial = func() (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
	return NewClient(o)
}

// dialOnce opens a connection and completes the handshake. The
// returned reader buffers the connection's inbound side and carries on
// into its readLoop.
func (c *Client) dialOnce() (net.Conn, *bufio.Reader, error) {
	conn, err := c.o.Dial()
	if err != nil {
		return nil, nil, err
	}
	if _, err := conn.Write(appendHello(nil, c.o.ID)); err != nil {
		conn.Close()
		return nil, nil, err
	}
	br := bufio.NewReader(conn)
	typ, body, err := readFrame(br, 1<<16, nil)
	if err != nil || typ != frameHelloOK {
		conn.Close()
		return nil, nil, fmt.Errorf("gateway: handshake refused (%v)", err)
	}
	if _, _, err := parseHelloOK(body); err != nil {
		conn.Close()
		return nil, nil, err
	}
	return conn, br, nil
}

// Counters snapshots the client's activity counters.
func (c *Client) Counters() ClientCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ctrs
}

// InFlight returns the number of unresolved submissions.
func (c *Client) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// ErrWindowFull is returned by Submit when the local in-flight window
// is exhausted — backpressure to the caller, not a wire rejection.
var ErrWindowFull = errors.New("gateway: client window full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("gateway: client closed")

// ErrSuppressed is returned by Submit while the client honors a server
// Busy retry hint: the gateway said it is overloaded and when to come
// back, so new submissions are shed locally — free for both sides —
// until that deadline. Terminal for this Submit call, like
// ErrWindowFull.
var ErrSuppressed = errors.New("gateway: suppressed by server Busy retry hint")

// Submit queues one transaction for the connection's next write and
// returns its in-flight handle; it never waits on the socket. The
// submission resolves exactly once — commit ack, exhausted rejection,
// or abort — through Pending.Wait and ClientOptions.OnOutcome.
func (c *Client) Submit(payload []byte) (*Pending, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if !c.suppressUntil.IsZero() && time.Now().Before(c.suppressUntil) {
		c.ctrs.Suppressed++
		c.mu.Unlock()
		return nil, ErrSuppressed
	}
	if len(c.pending) >= c.o.Window {
		c.mu.Unlock()
		return nil, ErrWindowFull
	}
	seq := c.nextSeq
	c.nextSeq++
	p := &Pending{seq: seq, payload: payload, start: time.Now(), done: make(chan Outcome, 1)}
	c.pending[seq] = p
	w := c.w
	c.mu.Unlock()

	c.sendSubmit(w, p)
	c.armTimer(p, c.o.AckTimeout)
	return p, nil
}

// SubmitWait is Submit + Wait.
func (c *Client) SubmitWait(payload []byte) (Outcome, error) {
	p, err := c.Submit(payload)
	if err != nil {
		return Outcome{}, err
	}
	return p.Wait(), nil
}

// sendSubmit queues one submission frame on the connection's writer. A
// frame the writer refuses, or loses to a write error, belongs to a
// dying connection: its reader takes the reconnect path, which
// resubmits everything pending.
func (c *Client) sendSubmit(w *frameWriter, p *Pending) {
	p.mu.Lock()
	if p.resolved {
		p.mu.Unlock()
		return
	}
	p.attempts++
	p.mu.Unlock()
	if w == nil {
		return // reconnecting; the redial resubmits all pending
	}
	w.push(func(b []byte) []byte { return appendSubmit(b, p.seq, c.o.Priority, p.payload) })
}

// armTimer (re)arms a pending submission's timer: after d, resubmit on
// ack timeout.
func (c *Client) armTimer(p *Pending, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.resolved {
		return
	}
	if p.timer != nil {
		p.timer.Stop()
	}
	p.timer = time.AfterFunc(d, func() { c.ackTimeout(p) })
}

// ackTimeout fires when a submission has gone unacknowledged too long:
// the submission (or its ack) was lost somewhere — resubmit. The
// server's dedup window makes this idempotent.
func (c *Client) ackTimeout(p *Pending) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	w := c.w
	c.ctrs.Resubmits++
	c.mu.Unlock()
	c.sendSubmit(w, p)
	c.armTimer(p, c.o.AckTimeout)
}

// backoff returns the jittered exponential delay for the given attempt
// count: uniform in [d/2, 3d/2) around d = base << attempts, capped.
func (c *Client) backoff(attempts int, serverHintMs uint32) time.Duration {
	d := c.o.BackoffBase << uint(min(attempts, 16))
	if hint := time.Duration(serverHintMs) * time.Millisecond; d < hint {
		d = hint
	}
	if d > c.o.BackoffCap {
		d = c.o.BackoffCap
	}
	c.mu.Lock()
	jitter := c.rng.Float64()
	c.mu.Unlock()
	return d/2 + time.Duration(jitter*float64(d))
}

// readLoop consumes acks from one connection, through its buffered
// reader, until it dies, then hands off to the reconnect path.
func (c *Client) readLoop(w *frameWriter, br *bufio.Reader) {
	scratch := make([]byte, 64)
	for {
		typ, body, err := readFrame(br, 1<<16, scratch)
		if err != nil {
			c.reconnect(w)
			return
		}
		if typ != frameAck {
			continue // tolerate future frame types from newer servers
		}
		seq, status, retryMs, err := parseAck(body)
		if err != nil {
			c.reconnect(w)
			return
		}
		c.onAck(seq, status, retryMs)
	}
}

// onAck applies one server ack to its pending submission.
func (c *Client) onAck(seq uint64, status byte, retryMs uint32) {
	c.mu.Lock()
	p := c.pending[seq]
	c.mu.Unlock()
	if p == nil {
		// Ack for a submission already resolved: a retry raced with the
		// original ack (the dedup window answers both). Benign.
		return
	}
	switch status {
	case StatusCommitted:
		// Deliberately no effect on the Busy escalation: a commit says
		// the pipeline drained one item, not that admission has headroom
		// — under sustained overload commits trickle constantly, and
		// decaying the streak on them kept suppression windows near the
		// base, letting the fleet's rejected wire traffic eat the
		// replica's capacity. The escalation instead expires by time
		// (see the Busy case).
		c.resolve(p, StatusCommitted, true)
	case StatusDuplicate:
		// Still in flight server-side; the commit ack will follow. Push
		// the ack timeout out so we don't retry-storm a slow commit.
		c.armTimer(p, c.o.AckTimeout)
	case StatusBusy, StatusWindowFull:
		if status == StatusBusy {
			// Honor the retry hint: shed new submissions locally until it
			// expires, escalating across consecutive Busy verdicts (the
			// jittered backoff schedule keeps the fleet decorrelated).
			// A long quiet gap — 2x BackoffCap comfortably exceeds the
			// longest jittered window — means the previous overload
			// episode ended, so the escalation restarts near the base.
			c.mu.Lock()
			now := time.Now()
			if !c.lastBusy.IsZero() && now.Sub(c.lastBusy) > 2*c.o.BackoffCap {
				c.busyStreak = 0
			}
			c.lastBusy = now
			c.busyStreak++
			streak := c.busyStreak
			c.mu.Unlock()
			// The server's adaptive hint is the authoritative controller
			// (it alone sees fleet-wide rejection vs admission rates); the
			// local escalation is a bounded fallback, capped low so a
			// stale streak cannot starve a recovered server.
			if streak > 4 {
				streak = 4
			}
			until := time.Now().Add(c.backoff(streak, retryMs))
			c.mu.Lock()
			if until.After(c.suppressUntil) {
				c.suppressUntil = until
			}
			c.mu.Unlock()
		}
		p.mu.Lock()
		attempts := p.attempts
		p.mu.Unlock()
		if c.o.MaxAttempts > 0 && attempts >= c.o.MaxAttempts {
			c.resolve(p, status, false)
			return
		}
		// Back off, then resubmit: seeded jitter decorrelates the fleet,
		// the server hint floors the delay under deep overload.
		delay := c.backoff(attempts, retryMs)
		p.mu.Lock()
		if !p.resolved {
			if p.timer != nil {
				p.timer.Stop()
			}
			p.timer = time.AfterFunc(delay, func() {
				c.mu.Lock()
				w := c.w
				closed := c.closed
				c.mu.Unlock()
				if !closed {
					c.sendSubmit(w, p)
					c.armTimer(p, c.o.AckTimeout)
				}
			})
		}
		p.mu.Unlock()
	}
}

// resolve delivers a submission's terminal outcome exactly once.
func (c *Client) resolve(p *Pending, status byte, committed bool) {
	p.mu.Lock()
	if p.resolved {
		p.mu.Unlock()
		return
	}
	p.resolved = true
	if p.timer != nil {
		p.timer.Stop()
		p.timer = nil
	}
	attempts := p.attempts
	p.mu.Unlock()

	c.mu.Lock()
	delete(c.pending, p.seq)
	switch {
	case committed:
		c.ctrs.Committed++
	case status == StatusAborted:
		c.ctrs.Aborted++
	default:
		c.ctrs.Rejected++
	}
	c.mu.Unlock()

	out := Outcome{
		Seq: p.seq, Status: status, Committed: committed,
		Latency: time.Since(p.start), Attempts: attempts,
	}
	p.done <- out
	if c.o.OnOutcome != nil {
		c.o.OnOutcome(out)
	}
}

// reconnect tears down a dead connection and, once per generation,
// redials with jittered backoff, replays the handshake, and resubmits
// everything pending — the crash/partition recovery path.
func (c *Client) reconnect(dead *frameWriter) {
	dead.close()
	c.mu.Lock()
	if c.closed || c.w != dead || c.dialing {
		c.mu.Unlock()
		return
	}
	c.dialing = true
	c.w = nil
	c.mu.Unlock()

	go func() {
		for attempt := 1; ; attempt++ {
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if closed {
				return
			}
			conn, br, err := c.dialOnce()
			if err != nil {
				time.Sleep(c.backoff(attempt, 0))
				continue
			}
			c.mu.Lock()
			if c.closed {
				c.mu.Unlock()
				conn.Close() // Close ran while this dial was out
				return
			}
			w := newFrameWriter(conn, 0)
			c.w = w
			c.dialing = false
			c.ctrs.Reconnects++
			resubmit := make([]*Pending, 0, len(c.pending))
			for _, p := range c.pending {
				resubmit = append(resubmit, p)
			}
			c.mu.Unlock()
			go c.readLoop(w, br)
			// Resubmit everything in flight: whatever the old connection
			// lost is replayed, and the server's window dedups the rest.
			for _, p := range resubmit {
				c.sendSubmit(w, p)
				c.armTimer(p, c.o.AckTimeout)
			}
			return
		}
	}()
}

// Close aborts in-flight submissions and releases the connection.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	w := c.w
	c.w = nil
	var toAbort []*Pending
	for _, p := range c.pending {
		toAbort = append(toAbort, p)
	}
	c.mu.Unlock()
	if w != nil {
		w.close()
	}
	for _, p := range toAbort {
		c.resolve(p, StatusAborted, false)
	}
}
