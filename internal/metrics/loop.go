// Event-loop ingress counters: how many events a replica's runtime
// accepted, dispatched to data-plane shards, and — critically — dropped
// because an inbox was full. Drops are silent by design (protocols
// tolerate loss and recover by retransmission), which historically made
// overload invisible; these counters make it observable.
package metrics

import "sync/atomic"

// LoopCounters instruments one transport event loop (control queue plus
// its data-plane shard queues, if any).
type LoopCounters struct {
	// ControlEvents / ShardEvents count events accepted onto the control
	// queue and the shard queues respectively.
	ControlEvents atomic.Uint64
	ShardEvents   atomic.Uint64
	// InboxDrops counts events discarded because the control inbox was
	// full; ShardDrops the same for data-plane shard queues. The newest
	// event is the one dropped (see transport.Loop's queueing contract).
	InboxDrops atomic.Uint64
	ShardDrops atomic.Uint64
}

// LoopSnapshot is a plain-value copy of LoopCounters, plus replica-level
// health fields the loop itself does not own: Replica.LoopStats fills
// them from the mesh's per-peer link-health counters and the journal's
// fault state, so one snapshot carries the whole self-healing picture.
type LoopSnapshot struct {
	ControlEvents, ShardEvents, InboxDrops, ShardDrops uint64
	// PeerStalls / PeerRedials / PeerDials aggregate the mesh's link
	// health across peers (see PeerTransport).
	PeerStalls, PeerRedials, PeerDials uint64
	// JournalFatal is 1 when the replica halted on a journal write/sync
	// failure (write-before-externalize could no longer be guaranteed).
	JournalFatal uint64
}

// Snapshot copies the counters into plain values.
func (c *LoopCounters) Snapshot() LoopSnapshot {
	return LoopSnapshot{
		ControlEvents: c.ControlEvents.Load(),
		ShardEvents:   c.ShardEvents.Load(),
		InboxDrops:    c.InboxDrops.Load(),
		ShardDrops:    c.ShardDrops.Load(),
	}
}
