// TCP cluster: four Autobahn replicas speaking real length-framed TCP on
// localhost — the same code path a multi-machine deployment uses (see
// cmd/autobahn-node for the standalone binary). Transactions submitted to
// each replica's lane commit in an identical total order everywhere.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	autobahn "repro"
	"repro/internal/types"
)

func main() {
	opts := autobahn.Options{N: 4, MaxBatchDelay: 25 * time.Millisecond}
	addrs := map[types.NodeID]string{
		0: "127.0.0.1:19470",
		1: "127.0.0.1:19471",
		2: "127.0.0.1:19472",
		3: "127.0.0.1:19473",
	}

	const total = 120

	// Watch replica 2's committed log (any replica shows the same order).
	// The observer runs on the replica's event loop, so it only hands each
	// commit over; every batch holds at least one of the transactions, so
	// the channel has room for all of them.
	commits := make(chan autobahn.Committed, total)

	logger := log.New(os.Stderr, "tcp-cluster ", log.Ltime)
	replicas := make([]*autobahn.Replica, 4)
	for id := range addrs {
		r, err := autobahn.NewReplica(id, addrs, opts, logger)
		if err != nil {
			log.Fatal(err)
		}
		if id == 2 {
			r.SetCommitObserver(func(c autobahn.Committed) { commits <- c })
		}
		if err := r.Start(); err != nil {
			log.Fatal(err)
		}
		defer r.Stop()
		replicas[id] = r
	}

	// Submit transactions to every replica over its local API.
	start := time.Now()
	for i := 0; i < total; i++ {
		tx := fmt.Sprintf("kv-put{key: user%03d, val: balance=%d}", i, 1000+i)
		replicas[i%4].Submit([]byte(tx))
	}

	committed := 0
	for committed < total {
		select {
		case c := <-commits:
			committed += len(c.Batch.Txs)
			fmt.Printf("r2 committed slot %3d lane %s pos %2d: +%3d txs (%3d/%d, %v)\n",
				c.Slot, c.Lane, c.Position, len(c.Batch.Txs), committed, total,
				time.Since(start).Round(time.Millisecond))
		case <-time.After(15 * time.Second):
			log.Fatalf("timed out with %d/%d committed", committed, total)
		}
	}
	fmt.Printf("\nall %d transactions committed over real TCP in %v\n",
		total, time.Since(start).Round(time.Millisecond))
}
