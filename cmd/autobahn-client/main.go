// Command autobahn-client is the open-loop load generator for TCP
// deployments (cmd/autobahn-node -gateway): it submits random
// transactions of a fixed size at a constant rate, matching the paper's
// workload (512-byte no-op transactions, §6). With -conns > 1 the rate
// is split across parallel connections — a single submitter is
// window-limited, and cannot saturate a replica whose data plane runs
// multi-core (-shards).
//
// Each connection is a gateway.Client with a submission window, seeded
// backoff on typed rejections, and ack-timeout resubmission, and the run
// reports end-to-end submit→commit-ack latency percentiles alongside the
// outcome counts.
package main

import (
	"crypto/rand"
	"flag"
	"log"
	"sort"
	"sync"
	"time"

	"repro/internal/gateway"
)

func main() {
	to := flag.String("to", "127.0.0.1:8000", "replica gateway address")
	rate := flag.Float64("rate", 1000, "transactions per second (total across connections)")
	size := flag.Int("size", 512, "transaction payload bytes")
	duration := flag.Duration("duration", 10*time.Second, "how long to submit")
	conns := flag.Int("conns", 1, "parallel submission connections")
	priority := flag.Int("priority", 1, "gateway priority class: 0 bulk (shed first under load), 1 normal, 2 high")
	flag.Parse()

	if *conns < 1 {
		*conns = 1
	}
	gatewayLoad(*to, *rate, *size, *duration, *conns, uint8(*priority))
}

// gatewayLoad drives -conns gateway clients at the target aggregate rate
// and reports outcome counts plus submit→commit-ack latency percentiles.
func gatewayLoad(to string, rate float64, size int, duration time.Duration, conns int, prio uint8) {
	var (
		mu                           sync.Mutex
		latencies                    []time.Duration
		committed, rejected, aborted uint64
	)
	outcome := func(out gateway.Outcome) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case out.Committed:
			committed++
			latencies = append(latencies, out.Latency)
		case out.Status == gateway.StatusAborted:
			aborted++
		default:
			rejected++
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := gateway.Dial(to, gateway.ClientOptions{
				ID:        uint64(c + 1),
				Priority:  prio,
				OnOutcome: outcome,
			})
			if err != nil {
				log.Printf("gateway conn %d: %v", c, err)
				return
			}
			payload := make([]byte, size)
			rand.Read(payload)
			interval := time.Duration(float64(time.Second) * float64(conns) / rate)
			if interval <= 0 {
				interval = time.Microsecond
			}
			deadline := time.Now().Add(duration)
			next := time.Now()
			for time.Now().Before(deadline) {
				if _, err := cl.Submit(payload); err != nil {
					// Local window full: the commit pipeline is behind this
					// submitter — yield until acks free slots.
					time.Sleep(interval)
					continue
				}
				next = next.Add(interval)
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
			}
			// Drain in-flight submissions before tearing the client down.
			for i := 0; i < 100 && cl.InFlight() > 0; i++ {
				time.Sleep(100 * time.Millisecond)
			}
			cl.Close()
		}(c)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) time.Duration {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(latencies)-1))
		return latencies[i]
	}
	log.Printf("gateway: %d committed (%.0f tx/s), %d rejected, %d aborted; ack latency p50 %s p99 %s",
		committed, float64(committed)/duration.Seconds(), rejected, aborted,
		pct(0.50).Round(time.Microsecond), pct(0.99).Round(time.Microsecond))
}
