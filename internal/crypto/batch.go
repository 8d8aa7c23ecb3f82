package crypto

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	gort "runtime"
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// This file implements the amortized verification primitives behind the
// staged ingress pipeline: a bounded memo of already-verified signatures
// (VerifyCache) and a BatchVerifier that checks many signatures at once,
// spreading the curve arithmetic across every available core.
//
// Pre-verification (runtime.PreVerifier) is the only place a signature
// is checked, so the memo's hits are repeats across messages: a PoA that
// rides in many consecutive cuts, a QC that arrives in a Confirm and again
// in Timeouts, a replica's own share inside the certificates that
// aggregate it. Each is verified once and looked up afterwards.

// memoKey identifies one verified signature. The digest covers both the
// message and the signature bytes: caching by message alone would let an
// attacker replay a *different* (invalid) signature for a known-signed
// message and have it accepted — harmless for authentication, but the
// bogus share could then be aggregated into a PoA or QC that every other
// replica rejects.
type memoKey struct {
	signer types.NodeID
	digest [32]byte
}

func makeMemoKey(signer types.NodeID, msg, sig []byte) memoKey {
	h := sha256.New()
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(msg)))
	h.Write(n[:])
	h.Write(msg)
	h.Write(sig)
	var k memoKey
	k.signer = signer
	h.Sum(k.digest[:0])
	return k
}

// VerifyCache wraps a Verifier with a bounded memo of signatures that
// already verified successfully. Failed verifications are never cached.
// Safe for concurrent use; implements Verifier.
//
// The memo uses two generations: inserts go to the young generation, and
// when it fills, the old generation is discarded and the young one takes
// its place. Lookups consult both. This bounds memory at ~2x capacity
// with O(1) operations and no per-entry bookkeeping.
type VerifyCache struct {
	inner Verifier

	mu       sync.RWMutex
	capacity int
	young    map[memoKey]struct{}
	old      map[memoKey]struct{}

	// Whole-certificate verdict memo (same two-generation scheme,
	// separate maps): a key here attests that an entire cert — every
	// share, threshold and distinctness included — verified under one of
	// the quorum helpers. Certificates re-arrive constantly (a PoA rides
	// in its car, then standalone, then in every cut that includes the
	// tip; a CommitQC rides the notice, the ticket and the commit-reply
	// path), and at large committees each re-arrival would otherwise
	// cost n share-memo lookups; the cert memo collapses it to one.
	certYoung map[[32]byte]struct{}
	certOld   map[[32]byte]struct{}

	// Counters are atomic: the hit path must stay lock-free beyond the
	// read lock — it is shared between the event loop and every
	// pre-verification worker.
	hits   atomic.Uint64
	misses atomic.Uint64

	certHits   atomic.Uint64
	certMisses atomic.Uint64
}

// NewVerifyCache wraps v with a memo holding at least capacity verified
// signatures (default 1<<14).
func NewVerifyCache(v Verifier, capacity int) *VerifyCache {
	if capacity <= 0 {
		capacity = 1 << 14
	}
	return &VerifyCache{
		inner:     v,
		capacity:  capacity,
		young:     make(map[memoKey]struct{}),
		old:       make(map[memoKey]struct{}),
		certYoung: make(map[[32]byte]struct{}),
		certOld:   make(map[[32]byte]struct{}),
	}
}

// Verify implements Verifier: memo hit, else full verification (caching
// the result only on success).
func (c *VerifyCache) Verify(signer types.NodeID, msg, sig []byte) bool {
	k := makeMemoKey(signer, msg, sig)
	c.mu.RLock()
	_, ok := c.young[k]
	if !ok {
		_, ok = c.old[k]
	}
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return true
	}
	if !c.inner.Verify(signer, msg, sig) {
		return false
	}
	c.insert(k)
	return true
}

func (c *VerifyCache) insert(k memoKey) {
	c.misses.Add(1)
	c.remember(k)
}

func (c *VerifyCache) remember(k memoKey) {
	c.mu.Lock()
	if len(c.young) >= c.capacity {
		c.old = c.young
		c.young = make(map[memoKey]struct{}, c.capacity)
	}
	c.young[k] = struct{}{}
	c.mu.Unlock()
}

// Signer wraps a replica's own signer so that every signature it produces
// enters the memo as it is made: a replica's own vote comes back to it in
// every certificate that aggregates it (PoA, PrepareQC, CommitQC, ticket),
// and checking one's own signature proves nothing. Only signatures made
// here, with the private key, are trusted this way — a share received from
// the network under this replica's name still verifies in full.
func (c *VerifyCache) Signer(s Signer) Signer { return memoSigner{Signer: s, cache: c} }

type memoSigner struct {
	Signer
	cache *VerifyCache
}

func (s memoSigner) Sign(msg []byte) []byte {
	sig := s.Signer.Sign(msg)
	s.cache.remember(makeMemoKey(s.ID(), msg, sig))
	return sig
}

// Cached reports whether the exact (signer, msg, sig) triple is memoized
// (tests and stats; a false result says nothing about validity).
func (c *VerifyCache) Cached(signer types.NodeID, msg, sig []byte) bool {
	k := makeMemoKey(signer, msg, sig)
	c.mu.RLock()
	defer c.mu.RUnlock()
	if _, ok := c.young[k]; ok {
		return true
	}
	_, ok := c.old[k]
	return ok
}

// Stats returns the memo hit/miss counters.
func (c *VerifyCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// CertStats returns the whole-certificate verdict memo counters.
func (c *VerifyCache) CertStats() (hits, misses uint64) {
	return c.certHits.Load(), c.certMisses.Load()
}

// certHit reports (and counts) whether a whole-cert verdict is memoized.
func (c *VerifyCache) certHit(k [32]byte) bool {
	c.mu.RLock()
	_, ok := c.certYoung[k]
	if !ok {
		_, ok = c.certOld[k]
	}
	c.mu.RUnlock()
	if ok {
		c.certHits.Add(1)
	}
	return ok
}

// certInsert memoizes a whole-cert verdict. Only certificates whose every
// share verified may be inserted — a forged cert must never be cached.
func (c *VerifyCache) certInsert(k [32]byte) {
	c.certMisses.Add(1)
	c.mu.Lock()
	if len(c.certYoung) >= c.capacity {
		c.certOld = c.certYoung
		c.certYoung = make(map[[32]byte]struct{}, c.capacity)
	}
	c.certYoung[k] = struct{}{}
	c.mu.Unlock()
}

// batchItem is one queued signature check.
type batchItem struct {
	signer types.NodeID
	msg    []byte
	sig    []byte
}

// BatchVerifier collects signature checks and verifies them together,
// amortizing cost two ways: duplicate and memoized signatures are checked
// once (when the underlying Verifier is a VerifyCache), and the remaining
// curve arithmetic is spread across all available cores. It works with
// any Suite — ed25519 and nop alike — since it drives the suite's own
// Verifier.
//
// A BatchVerifier is single-use and not safe for concurrent use; create
// one per batch. (The underlying VerifyCache is shared and thread-safe.)
type BatchVerifier struct {
	v     Verifier
	items []batchItem
}

// NewBatchVerifier builds an empty batch over v. Pass a *VerifyCache to
// get memo amortization in addition to parallelism.
func NewBatchVerifier(v Verifier) *BatchVerifier {
	return &BatchVerifier{v: v}
}

// Add queues one signature check. The caller must not mutate msg or sig
// until Verify returns.
func (b *BatchVerifier) Add(signer types.NodeID, msg, sig []byte) {
	b.items = append(b.items, batchItem{signer: signer, msg: msg, sig: sig})
}

// Len reports the number of queued checks.
func (b *BatchVerifier) Len() int { return len(b.items) }

// AddPoA queues a PoA's shares after validating its structure (distinct
// committee signers at the f+1 threshold) — the batch form of VerifyPoA.
func (b *BatchVerifier) AddPoA(committee types.Committee, poa *types.PoA) error {
	if poa == nil {
		return fmt.Errorf("crypto: nil PoA")
	}
	if len(poa.Shares) < committee.PoAQuorum() {
		return fmt.Errorf("crypto: %d shares below threshold %d", len(poa.Shares), committee.PoAQuorum())
	}
	if _, err := DistinctSigners(committee, poa.Shares); err != nil {
		return err
	}
	msg := poa.SigningBytes()
	for _, s := range poa.Shares {
		b.Add(s.Signer, msg, s.Sig)
	}
	return nil
}

// parallelThreshold is the batch size below which fanning out to worker
// goroutines costs more than it saves.
const parallelThreshold = 4

// Verify checks every queued signature and fails if any one is invalid.
// On a VerifyCache only the valid signatures are memoized — a batch
// containing a forgery rejects, and the forgery is never cached. The
// batch is cleared afterwards.
func (b *BatchVerifier) Verify() error {
	items := b.items
	b.items = nil
	if len(items) == 0 {
		return nil
	}
	if bad := verifyRange(b.v, items); bad >= 0 {
		return fmt.Errorf("crypto: invalid signature from %s in batch of %d", items[bad].signer, len(items))
	}
	return nil
}

// VerifyCert is Verify for the queued shares of ONE certificate, with
// whole-cert amortization on top of the per-share path: when the
// underlying verifier is a VerifyCache, the cert's verdict — keyed by a
// digest over domain and every (signer, msg, sig) triple — is memoized,
// so a re-arriving certificate costs one hash and one map lookup instead
// of n share checks. domain separates certificate kinds that could
// otherwise collide on identical share sets (PoA vs QC framings).
//
// The happy path is one batched verification of all shares (parallel
// striping, pass/fail only). Only when that batch REJECTS does the
// per-share bisection run, to name the forged share in the error — the
// attribution cost is paid exclusively by invalid certificates.
func (b *BatchVerifier) VerifyCert(domain string) error {
	items := b.items
	b.items = nil
	if len(items) == 0 {
		return nil
	}
	cache, _ := b.v.(*VerifyCache)
	var key [32]byte
	if cache != nil {
		key = certFingerprint(domain, items)
		if cache.certHit(key) {
			return nil
		}
	}
	if !allValid(b.v, items) {
		// Batch failure: bisect to attribute the forgery. The valid
		// shares checked along the way still land in the share memo (when
		// cached), so an attacker padding real shares with one forgery
		// cannot make honest replicas re-pay for the real ones.
		bad := bisect(b.v, items)
		return fmt.Errorf("crypto: invalid signature from %s in batch of %d", items[bad].signer, len(items))
	}
	if cache != nil {
		cache.certInsert(key)
	}
	return nil
}

// certFingerprint digests one certificate's identity for the verdict
// memo: the domain tag plus every queued (signer, msg, sig) triple, all
// length-prefixed. Any change to any share — content, signature, order,
// count — yields a different key.
func certFingerprint(domain string, items []batchItem) [32]byte {
	h := sha256.New()
	var n [8]byte
	binary.LittleEndian.PutUint32(n[:4], uint32(len(domain)))
	binary.LittleEndian.PutUint32(n[4:], uint32(len(items)))
	h.Write(n[:])
	h.Write([]byte(domain))
	for i := range items {
		it := &items[i]
		binary.LittleEndian.PutUint32(n[:4], uint32(it.signer))
		binary.LittleEndian.PutUint32(n[4:], uint32(len(it.msg)))
		h.Write(n[:])
		h.Write(it.msg)
		binary.LittleEndian.PutUint32(n[:4], uint32(len(it.sig)))
		h.Write(n[:4])
		h.Write(it.sig)
	}
	var key [32]byte
	h.Sum(key[:0])
	return key
}

// allValid runs one batched pass over items — pass/fail only, with the
// curve arithmetic striped across cores above parallelThreshold.
func allValid(v Verifier, items []batchItem) bool {
	return verifyRange(v, items) < 0
}

// bisect locates one invalid share in a batch that failed its all-or-
// nothing check: verify halves as sub-batches and descend into a failing
// half until a single share remains. With one forgery among n shares
// this is O(log n) sub-batch passes over shares that (under a
// VerifyCache) are mostly memo hits by the second level; with multiple
// forgeries it attributes the first one found. items must contain at
// least one invalid share.
func bisect(v Verifier, items []batchItem) int {
	lo, hi := 0, len(items)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if !allValid(v, items[lo:mid]) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}

// verifyRange checks every item, returning the lowest invalid index or
// -1. Small batches (or single-core hosts) run inline; larger ones
// stripe the work across GOMAXPROCS goroutines.
func verifyRange(v Verifier, items []batchItem) int {
	workers := gort.GOMAXPROCS(0)
	if workers > len(items) {
		workers = len(items)
	}
	if len(items) < parallelThreshold || workers < 2 {
		for i := range items {
			it := &items[i]
			if !v.Verify(it.signer, it.msg, it.sig) {
				return i
			}
		}
		return -1
	}
	var (
		mu  sync.Mutex
		bad = -1
		wg  sync.WaitGroup
	)
	// Striped work distribution: worker w takes items w, w+workers, ...
	// Static striping keeps the hot path allocation- and contention-free
	// (no shared work queue to coordinate for these short batches).
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(items); i += workers {
				it := &items[i]
				if !v.Verify(it.signer, it.msg, it.sig) {
					mu.Lock()
					if bad < 0 || i < bad {
						bad = i
					}
					mu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return bad
}
