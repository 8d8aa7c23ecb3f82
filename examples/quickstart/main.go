// Quickstart: a 4-replica Autobahn cluster running in-process in real
// time with full ed25519 signing. Clients submit transactions to every
// replica's lane; the cluster totally orders them and streams replica
// 0's commits back in log order through the commit observer.
package main

import (
	"fmt"
	"log"
	"time"

	autobahn "repro"
	"repro/internal/types"
)

func main() {
	cluster, err := autobahn.NewLiveCluster(autobahn.Options{
		N:             4,
		MaxBatchDelay: 25 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Submit 200 transactions round-robin across the four lanes.
	const total = 200

	// The observer runs on the replicas' event loops, so it only hands
	// replica 0's commits over. Every batch holds at least one of the
	// transactions, so the channel has room for all of them.
	commits := make(chan autobahn.Committed, total)
	cluster.SetCommitObserver(func(c autobahn.Committed) {
		if c.Replica == 0 {
			commits <- c
		}
	})
	cluster.Start()
	defer cluster.Stop()
	start := time.Now()
	for i := 0; i < total; i++ {
		tx := fmt.Sprintf("transfer{from: acct%03d, to: acct%03d, amount: %d}", i, (i+7)%100, i*10)
		if err := cluster.Submit(types.NodeID(i%4), []byte(tx)); err != nil {
			log.Fatal(err)
		}
	}

	// Consume the total order until every transaction committed.
	committed := 0
	for committed < total {
		select {
		case c := <-commits:
			committed += len(c.Batch.Txs)
			fmt.Printf("slot %3d  lane %s pos %2d  +%4d txs  (%4d/%d total, %v elapsed)\n",
				c.Slot, c.Lane, c.Position, len(c.Batch.Txs), committed, total,
				time.Since(start).Round(time.Millisecond))
		case <-time.After(10 * time.Second):
			log.Fatalf("timed out with %d/%d committed", committed, total)
		}
	}
	fmt.Printf("\nall %d transactions totally ordered in %v\n", total, time.Since(start).Round(time.Millisecond))
}
