package autobahn

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/types"
)

// TestReplicaColdJoinViaSnapshot is the real-runtime O(state) join path,
// under a lossy link: a snapshotting TCP cluster commits enough history
// to truncate it, one replica loses its disk entirely (WAL + snapshot),
// and the rebuilt process — behind a link dropping a share of its
// egress — must rejoin through snapshot-based state sync (manifest,
// verified chunks, install) instead of genesis replay, then keep
// committing with its peers.
func TestReplicaColdJoinViaSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP e2e")
	}
	const snapEvery = 24
	addrs := freeAddrs(t, 4)
	dir := t.TempDir()
	opts := func(id int, faulty bool) Options {
		o := Options{
			N:             4,
			MaxBatchDelay: 10 * time.Millisecond,
			Execution:     true,
			SnapshotEvery: snapEvery,
			WALPath:       filepath.Join(dir, fmt.Sprintf("r%d.wal", id)),
		}
		if faulty {
			o.LinkFaults = transport.NewLinkFaults(7).SetAll(transport.LinkRule{DropP: 0.1})
		}
		return o
	}
	replicas := make([]*Replica, 4)
	feed0 := newCommitFeed()
	for i := range replicas {
		r, err := NewReplica(types.NodeID(i), addrs, opts(i, false), log.New(os.Stderr, fmt.Sprintf("r%d ", i), 0))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			r.SetCommitObserver(feed0.observe)
		}
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		replicas[i] = r
	}
	defer func() {
		for _, r := range replicas {
			r.Stop()
		}
	}()

	// Drive load through replica 0 until the committed slot clears the
	// given threshold (watching replica 0's commit stream).
	driveUntilSlot := func(target types.Slot) {
		t.Helper()
		deadline := time.After(60 * time.Second)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		k := 0
		for {
			for c, ok := feed0.next(); ok; c, ok = feed0.next() {
				if c.Slot >= target {
					return
				}
			}
			select {
			case <-tick.C:
				replicas[0].Submit([]byte(fmt.Sprintf("tx-%06d", k)))
				k++
			case <-deadline:
				t.Fatalf("cluster did not reach slot %d", target)
			}
		}
	}

	// History deep enough that several checkpoints (and truncations)
	// happened and a genesis joiner would be hopelessly behind.
	driveUntilSlot(3 * snapEvery)

	// Replica 3 loses everything: process, WAL, snapshot.
	replicas[3].Stop()
	os.Remove(filepath.Join(dir, "r3.wal"))
	os.Remove(filepath.Join(dir, "r3.wal.snap"))

	// Put more history between the crash and the rejoin.
	driveUntilSlot(5 * snapEvery)

	r3, err := NewReplica(3, addrs, opts(3, true), log.New(os.Stderr, "r3' ", 0))
	if err != nil {
		t.Fatal(err)
	}
	feed3 := newCommitFeed()
	r3.SetCommitObserver(feed3.observe)
	if err := r3.Start(); err != nil {
		t.Fatal(err)
	}
	replicas[3] = r3

	// Keep traffic flowing (commit notices are the sync trigger; chunks
	// ride the same mesh) until the amnesiac installs a snapshot and
	// resumes committing above its frontier.
	deadline := time.After(90 * time.Second)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	k := 0
	committedAfterJoin := 0
	for {
		installed := r3.Node().Stats().SnapshotsInstalled
		if installed > 0 {
			if _, ok := feed3.next(); ok {
				committedAfterJoin++
			}
			if committedAfterJoin >= 20 {
				t.Logf("replica 3 cold-joined via %d snapshot install(s) at frontier %d, %d commits after join",
					installed, r3.Node().SnapshotFrontier(), committedAfterJoin)
				return
			}
		}
		select {
		case <-tick.C:
			replicas[0].Submit([]byte(fmt.Sprintf("post-%06d", k)))
			k++
		case <-deadline:
			t.Fatalf("cold join did not complete: installs=%d nextExec=%d commits-after=%d",
				installed, r3.Node().Orderer().NextExec(), committedAfterJoin)
		}
	}
}
