package autobahn

import (
	"sync"
	"time"
)

// commitFeed turns the commit observer into something a test can wait
// on: observe (the SetCommitObserver callback) queues every commit and
// never blocks the replica's event loop; the test pops them in order.
// Nothing is dropped, so a test that counts commits counts all of them.
type commitFeed struct {
	mu     sync.Mutex
	queue  []Committed
	signal chan struct{} // a commit may have been queued since the last wait
}

func newCommitFeed() *commitFeed {
	return &commitFeed{signal: make(chan struct{}, 1)}
}

func (f *commitFeed) observe(c Committed) {
	f.mu.Lock()
	f.queue = append(f.queue, c)
	f.mu.Unlock()
	select {
	case f.signal <- struct{}{}:
	default:
	}
}

// next pops the oldest queued commit, if there is one.
func (f *commitFeed) next() (Committed, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.queue) == 0 {
		return Committed{}, false
	}
	c := f.queue[0]
	f.queue = f.queue[1:]
	return c, true
}

// await pops commits into fn until fn returns true, and reports whether
// that happened within timeout.
func (f *commitFeed) await(timeout time.Duration, fn func(Committed) bool) bool {
	deadline := time.After(timeout)
	for {
		if c, ok := f.next(); ok {
			if fn(c) {
				return true
			}
			continue
		}
		select {
		case <-f.signal:
		case <-deadline:
			return false
		}
	}
}

// replicaFeed returns a feed of one LiveCluster replica's commits (the
// cluster's observer reports every replica).
func replicaFeed(lc *LiveCluster, id int) *commitFeed {
	f := newCommitFeed()
	lc.SetCommitObserver(func(c Committed) {
		if int(c.Replica) == id {
			f.observe(c)
		}
	})
	return f
}
