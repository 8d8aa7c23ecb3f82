// Gateway overload cell: a LiveCluster fronted by the client gateway
// tier (internal/gateway), driven by a 10k-client simulated fleet over
// in-memory pipes. The cell first probes sustainable capacity with a
// closed-loop subset, then paces the whole fleet open-loop at 1x and 2x
// that capacity and checks graceful degradation: committed throughput
// at 2x stays within 10% of at-capacity (admission control sheds the
// excess with typed rejections instead of collapsing), every submission
// reaches a terminal outcome, and bulk traffic is shed before normal.
package main

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	autobahn "repro"
	"repro/internal/gateway"
)

// gwPayload sizes each simulated client transaction. Large enough that
// the replica's per-commit work dominates the harness's per-attempt work
// (frames, timers, pipe handoffs): on small hosts the load generators
// share cores with the cluster, and a tiny payload would measure the
// generators stealing CPU rather than the gateway shedding load.
const gwPayload = 1024

// prioOf maps a fleet index to its admission class: every 4th client is
// bulk (shed first), the rest normal.
func prioOf(i int) uint8 {
	if i%4 == 3 {
		return gateway.PriorityBulk
	}
	return gateway.PriorityNormal
}

// gwCell accumulates one load cell's outcomes across the fleet.
type gwCell struct {
	attempted  atomic.Uint64    // Submit calls (paced or flood)
	localShed  atomic.Uint64    // ErrWindowFull at the client: terminal, never hit the wire
	suppressed [3]atomic.Uint64 // ErrSuppressed by class: Busy-hint shed, never hit the wire

	mu        sync.Mutex
	lat       []time.Duration
	committed [3]uint64 // by priority class
	rejected  [3]uint64
	aborted   uint64
}

func (c *gwCell) outcomes() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.aborted
	for p := 0; p < 3; p++ {
		n += c.committed[p] + c.rejected[p]
	}
	return n
}

func (c *gwCell) suppressedTotal() uint64 {
	var n uint64
	for p := 0; p < 3; p++ {
		n += c.suppressed[p].Load()
	}
	return n
}

func (c *gwCell) committedTotal() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.committed[0] + c.committed[1] + c.committed[2]
}

// pct returns the p-quantile of the cell's commit-ack latencies.
func (c *gwCell) pct(p float64) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.lat) == 0 {
		return 0
	}
	sort.Slice(c.lat, func(i, j int) bool { return c.lat[i] < c.lat[j] })
	return c.lat[int(p*float64(len(c.lat)-1))]
}

func runGateway(quick bool, seed uint64) {
	clients := 10_000
	probeN := 256
	probeDur := 3 * time.Second
	cellDur := 8 * time.Second
	drivers := 16
	if quick {
		clients = 2_000
		probeDur = 2 * time.Second
		cellDur = 4 * time.Second
	}

	lc, err := autobahn.NewLiveCluster(autobahn.Options{N: 4, Seed: seed, MaxBatchDelay: 5 * time.Millisecond})
	if err != nil {
		fmt.Printf("gateway: cluster: %v\n", err)
		check(false, "gateway: cluster construction")
		return
	}
	// MaxOutstanding is set far below the fleet's aggregate window budget
	// (clients x Window) so overload hits server-side admission before
	// client windows saturate: the cell must exercise typed rejections,
	// not just client-window backpressure. A tight ceiling is the point of
	// the tier — queues ahead of the replica stay short, and the capacity
	// probe measures the sustainable rate under that bound.
	srv := gateway.NewServer(lc.GatewayBackend(0), gateway.Options{AckQueue: 256, MaxOutstanding: 8192})
	lc.SetCommitObserver(func(c autobahn.Committed) {
		if c.Replica == 0 {
			srv.OnCommit(c.Batch)
		}
	})
	lc.Start()
	defer lc.Stop()
	defer srv.Stop()

	dial := func() (net.Conn, error) {
		a, b := net.Pipe()
		go srv.ServeConn(b)
		return a, nil
	}

	// Outcome routing: each client reports into whichever cell is live.
	var cur atomic.Pointer[gwCell]
	outcomeFor := func(prio uint8) func(gateway.Outcome) {
		return func(out gateway.Outcome) {
			c := cur.Load()
			if c == nil {
				return
			}
			c.mu.Lock()
			switch {
			case out.Committed:
				c.committed[prio]++
				c.lat = append(c.lat, out.Latency)
			case out.Status == gateway.StatusAborted:
				c.aborted++
			default:
				c.rejected[prio]++
			}
			c.mu.Unlock()
		}
	}

	// Build the fleet: every 4th client is bulk priority (shed first), the
	// rest normal. MaxAttempts=1 makes rejections terminal — open-loop
	// clients measure the admission verdict, they don't retry-storm.
	fmt.Printf("connecting %d simulated clients...\n", clients)
	fleet := make([]*gateway.Client, clients)
	var fleetErr atomic.Value
	var cwg sync.WaitGroup
	const workers = 64
	for w := 0; w < workers; w++ {
		cwg.Add(1)
		go func(w int) {
			defer cwg.Done()
			for i := w; i < clients; i += workers {
				prio := prioOf(i)
				cl, err := gateway.NewClient(gateway.ClientOptions{
					ID:          uint64(i + 1),
					Seed:        seed + uint64(i),
					Dial:        dial,
					Priority:    prio,
					Window:      64, // match the server window: backlog reaches admission, not just client windows
					MaxAttempts: 1,
					AckTimeout:  10 * time.Second,
					OnOutcome:   outcomeFor(prio),
				})
				if err != nil {
					fleetErr.Store(err)
					return
				}
				fleet[i] = cl
			}
		}(w)
	}
	cwg.Wait()
	if err := fleetErr.Load(); err != nil {
		fmt.Printf("gateway: fleet: %v\n", err)
		check(false, "gateway: fleet construction")
		return
	}
	defer func() {
		for _, cl := range fleet {
			cl.Close()
		}
	}()

	// drain waits for every in-flight submission to resolve (the terminal
	// -outcome guarantee this cell asserts).
	drain := func() bool {
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			inflight := 0
			for _, cl := range fleet {
				inflight += cl.InFlight()
			}
			if inflight == 0 {
				return true
			}
			time.Sleep(50 * time.Millisecond)
		}
		return false
	}

	// Capacity probe: a closed-loop subset floods its windows; the
	// committed rate is what the replica sustains with admission control
	// holding the backlog at the shed threshold.
	probeCell := &gwCell{}
	cur.Store(probeCell)
	var pwg sync.WaitGroup
	probeDeadline := time.Now().Add(probeDur)
	for _, cl := range fleet[:probeN] {
		pwg.Add(1)
		go func(cl *gateway.Client) {
			defer pwg.Done()
			payload := make([]byte, gwPayload)
			for time.Now().Before(probeDeadline) {
				if _, err := cl.Submit(payload); err != nil {
					time.Sleep(500 * time.Microsecond)
				}
			}
		}(cl)
	}
	pwg.Wait()
	// Count the commits when the load stops: what commits while the
	// backlog drains afterwards was admitted, not sustained, in the window.
	capacity := float64(probeCell.committedTotal()) / probeDur.Seconds()
	probeDrained := drain()
	fmt.Printf("capacity probe: %.0f tx/s committed (%d closed-loop clients, %v)\n", capacity, probeN, probeDur)
	record("clients", float64(clients))
	record("capacity_tps", capacity)

	// runPaced offers the whole fleet's load at the target aggregate rate,
	// round-robin across clients, then drains to terminal outcomes. Each
	// driver submits the batch its elapsed time owes per 2ms wake — sleep
	// granularity cannot throttle the offered rate the way per-submission
	// sleeps would.
	runPaced := func(rate float64, dur time.Duration) (*gwCell, bool) {
		c := &gwCell{}
		cur.Store(c)
		perDriver := rate / float64(drivers)
		var wg sync.WaitGroup
		for d := 0; d < drivers; d++ {
			wg.Add(1)
			go func(d int) {
				defer wg.Done()
				payload := make([]byte, gwPayload)
				start := time.Now()
				sent := 0
				k := d
				for {
					elapsed := time.Since(start)
					if elapsed >= dur {
						return
					}
					due := int(elapsed.Seconds()*perDriver) - sent
					if due > 2048 {
						due = 2048 // a stalled driver resumes offering, it doesn't burst-compensate
					}
					for j := 0; j < due; j++ {
						idx := k % clients
						cl := fleet[idx]
						k += drivers
						c.attempted.Add(1)
						if _, err := cl.Submit(payload); err != nil {
							if err == gateway.ErrSuppressed {
								// A cached Busy verdict: the admission
								// rejection, answered client-side.
								c.suppressed[prioOf(idx)].Add(1)
							} else {
								c.localShed.Add(1)
							}
						}
						sent++
					}
					time.Sleep(2 * time.Millisecond)
				}
			}(d)
		}
		wg.Wait()
		return c, drain()
	}

	report := func(tag string, c *gwCell, dur time.Duration) float64 {
		tput := float64(c.committedTotal()) / dur.Seconds()
		p50, p99 := c.pct(0.50), c.pct(0.99)
		c.mu.Lock()
		rej := c.rejected[0] + c.rejected[1] + c.rejected[2]
		c.mu.Unlock()
		fmt.Printf("%s: offered %d, committed %.0f tx/s, rejected %d (+%d suppressed), local-shed %d, ack p50 %v p99 %v\n",
			tag, c.attempted.Load(), tput, rej, c.suppressedTotal(), c.localShed.Load(),
			p50.Round(time.Microsecond), p99.Round(time.Microsecond))
		record("tput_"+tag+"_tps", tput)
		record("p50_"+tag+"_ms", float64(p50)/float64(time.Millisecond))
		record("p99_"+tag+"_ms", float64(p99)/float64(time.Millisecond))
		record("rejected_"+tag, float64(rej))
		record("suppressed_"+tag, float64(c.suppressedTotal()))
		return tput
	}

	cell1, drained1 := runPaced(capacity, cellDur)
	tput1 := report("1x", cell1, cellDur)
	cell2, drained2 := runPaced(2*capacity, cellDur)
	tput2 := report("2x", cell2, cellDur)
	cur.Store(nil)

	st := srv.Stats()
	record("admitted", float64(st.Admitted))
	record("deduped", float64(st.Deduped))
	record("acked", float64(st.Acked))
	record("ack_drops", float64(st.AckDrops))
	record("chain_dups", float64(st.ChainDups))

	check(probeDrained && drained1 && drained2,
		"gateway: every submission reaches a terminal outcome (commit ack, typed rejection, or local shed)")
	terminal := func(c *gwCell) bool {
		return c.outcomes() == c.attempted.Load()-c.localShed.Load()-c.suppressedTotal()
	}
	check(terminal(cell1) && terminal(cell2),
		"gateway: outcome accounting balances — nothing is silently dropped")
	check(tput1 > 0 && cell1.pct(0.99) > 0,
		"gateway: submit-to-commit-ack p50/p99 measured at capacity")
	check(tput2 >= 0.9*tput1,
		"gateway: no congestion collapse — committed throughput at 2x capacity >= 90% of at-capacity")
	check(st.ChainDups == 0,
		"gateway: dedup holds — zero duplicate commits reached the chain")

	// Shed ordering: under 2x overload, a bulk submission's rejection rate
	// must be at least normal's (bulk yields at half the backlog bound).
	// Suppressions count as rejections — they are Busy verdicts answered
	// from the client's cache.
	cell2.mu.Lock()
	bulkRej, bulkCom := cell2.rejected[0]+cell2.suppressed[0].Load(), cell2.committed[0]
	normRej, normCom := cell2.rejected[1]+cell2.suppressed[1].Load(), cell2.committed[1]
	cell2.mu.Unlock()
	if bulkRej+normRej > 100 {
		bulkRate := float64(bulkRej) / float64(bulkRej+bulkCom)
		normRate := float64(normRej) / float64(normRej+normCom)
		fmt.Printf("2x shed rates: bulk %.1f%%, normal %.1f%%\n", 100*bulkRate, 100*normRate)
		record("bulk_shed_rate_2x", bulkRate)
		record("normal_shed_rate_2x", normRate)
		check(bulkRate >= normRate,
			"gateway: weighted admission sheds bulk traffic before normal under overload")
	}
}
