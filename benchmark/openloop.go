package main

import (
	"encoding/binary"
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// All wall-clock stamps are nanoseconds on one monotonic clock.
var clockBase = time.Now()

func nowNs() int64 { return int64(time.Since(clockBase)) }

// schedule is the open loop: transaction k is due at start + k/rate,
// whatever the system does. Integer arithmetic from k (never an
// accumulated interval) keeps the millionth due time exact.
type schedule struct {
	startNs int64
	rate    int64 // tx/s
	total   int64
}

func (s schedule) due(k int64) int64 { return s.startNs + k*1e9/s.rate }

// dueCount is the number of transactions with due(k) <= now.
func (s schedule) dueCount(now int64) int64 {
	if now < s.startNs {
		return 0
	}
	n := ((now-s.startNs+1)*s.rate + 1e9 - 1) / 1e9
	if n > s.total {
		n = s.total
	}
	return n
}

// firstAt is the first k due at or after start+offset.
func (s schedule) firstAt(offsetNs int64) int64 {
	k := (offsetNs*s.rate + 1e9 - 1) / 1e9
	if k > s.total {
		k = s.total
	}
	return k
}

const (
	// genTick is how often a generator wakes; transactions due within a
	// tick go out together and are still timed from their own due times.
	genTick = time.Millisecond
	// burstTicks caps one slab at this many ticks' worth, so a stalled
	// generator catches up in bounded slabs whose lateness is measured.
	burstTicks = 10
	// payload layout: due time, sequence number, then seeded noise.
	payloadHeader = 16
	// probeSeq marks set-up probe transactions, which are not on the
	// schedule.
	probeSeq = uint64(1) << 62
)

// batchOf returns how many of generator g's transactions (k = g mod G)
// to send now: those in [next, due) capped at burst.
func batchOf(next, due, stride, burst int64) int64 {
	if next >= due {
		return 0
	}
	n := (due - next + stride - 1) / stride
	if n > burst {
		n = burst
	}
	return n
}

// txLog records what happened to each scheduled transaction. Index k is
// the schedule's sequence number. Writers are the generator (submitNs),
// replica 0's commit observer (r0Ns) and, on the gateway workload, the
// client's outcome callback (ackNs).
type txLog struct {
	sched    schedule
	submitNs []int64        // Submit entered; one writer per k
	r0Ns     []atomic.Int64 // committed at replica 0
	ackNs    []atomic.Int64 // client outcome (gateway workload only)
	refused  atomic.Int64   // Submit returned an error or a rejection
	dups     atomic.Int64   // a second commit of one transaction
	unknown  atomic.Int64   // a committed transaction nobody submitted

	// Traced runs sample every traceEvery-th transaction (index
	// k/traceEvery). submitRet is written by the generator; sealed (a
	// replica-local stamp) and originNs by the origin replica's observer.
	traceEvery int64
	submitRet  []int64
	sealedLoc  []int64
	originNs   []int64
	originOf   []int32
}

func newTxLog(s schedule, ackBased bool, traceEvery int64) *txLog {
	l := &txLog{
		sched:      s,
		submitNs:   make([]int64, s.total),
		r0Ns:       make([]atomic.Int64, s.total),
		traceEvery: traceEvery,
	}
	if ackBased {
		l.ackNs = make([]atomic.Int64, s.total)
	}
	if traceEvery > 0 {
		n := s.total/traceEvery + 1
		l.submitRet = make([]int64, n)
		l.sealedLoc = make([]int64, n)
		l.originNs = make([]int64, n)
		l.originOf = make([]int32, n)
	}
	return l
}

// outcomeNs is when transaction k reached the workload's definition of
// committed (0 = never).
func (l *txLog) outcomeNs(k int64) int64 {
	if l.ackNs != nil {
		return l.ackNs[k].Load()
	}
	return l.r0Ns[k].Load()
}

// seqOf reads the schedule index out of a committed transaction, whose
// payload is the last txSize bytes (a gateway envelope may precede it).
func seqOf(tx []byte, txSize int) (uint64, bool) {
	if len(tx) < txSize || txSize < payloadHeader {
		return 0, false
	}
	return binary.LittleEndian.Uint64(tx[len(tx)-txSize+8:]), true
}

// committedAt0 notes one transaction in replica 0's commit stream and
// reports whether it was a set-up probe.
func (l *txLog) committedAt0(tx []byte, txSize int, now int64) (probe bool) {
	k, ok := seqOf(tx, txSize)
	if ok && k >= probeSeq {
		return true
	}
	if !ok || k >= uint64(l.sched.total) {
		l.unknown.Add(1)
		return false
	}
	if !l.r0Ns[k].CompareAndSwap(0, now) {
		l.dups.Add(1)
	}
	return false
}

// generator submits every stride-th transaction of the schedule,
// starting at first, from one goroutine.
type generator struct {
	log    *txLog
	first  int64
	stride int64
	txSize int
	rng    *rand.Rand
	submit func(k int64, tx []byte) error
}

func (g *generator) run() {
	s := g.log.sched
	burst := s.rate * int64(burstTicks) * int64(genTick) / 1e9 / g.stride
	if burst < 1 {
		burst = 1
	}
	next := g.first
	for next < s.total {
		n := batchOf(next, s.dueCount(nowNs()), g.stride, burst)
		if n == 0 {
			time.Sleep(genTick)
			continue
		}
		// One slab per wake-up: the mempool keeps the slices, so a slab
		// is never reused.
		slab := make([]byte, int(n)*g.txSize)
		for i := payloadHeader; i+8 <= len(slab); i += 8 {
			binary.LittleEndian.PutUint64(slab[i:], g.rng.Uint64())
		}
		for i := int64(0); i < n; i++ {
			k := next + i*g.stride
			tx := slab[int(i)*g.txSize : int(i+1)*g.txSize : int(i+1)*g.txSize]
			binary.LittleEndian.PutUint64(tx, uint64(s.due(k)))
			binary.LittleEndian.PutUint64(tx[8:], uint64(k))
			g.log.submitNs[k] = nowNs()
			if err := g.submit(k, tx); err != nil {
				g.log.refused.Add(1)
			}
			if te := g.log.traceEvery; te > 0 && k%te == 0 {
				g.log.submitRet[k/te] = nowNs()
			}
		}
		next += n * g.stride
	}
}

// probeTx builds an off-schedule transaction for the set-up probe.
func probeTx(txSize int) []byte {
	tx := make([]byte, txSize)
	binary.LittleEndian.PutUint64(tx[8:], probeSeq)
	return tx
}
