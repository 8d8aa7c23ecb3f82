package crypto

import (
	"fmt"
	gort "runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/types"
)

func batchFixture(t testing.TB, suite Suite, n, items int) ([][]byte, [][]byte, []types.NodeID) {
	t.Helper()
	msgs := make([][]byte, items)
	sigs := make([][]byte, items)
	signers := make([]types.NodeID, items)
	for i := range msgs {
		id := types.NodeID(i % n)
		msgs[i] = []byte(fmt.Sprintf("payload-%d", i))
		sigs[i] = suite.Signer(id).Sign(msgs[i])
		signers[i] = id
	}
	return msgs, sigs, signers
}

func testForgedBatch(t *testing.T, suite Suite) {
	t.Helper()
	const n, items = 4, 16
	msgs, sigs, signers := batchFixture(t, suite, n, items)
	cache := NewVerifyCache(suite.Verifier(), 0)

	// Forge one signature in the middle.
	forged := 7
	sigs[forged] = append([]byte(nil), sigs[forged]...)
	sigs[forged][5] ^= 0xff

	bv := NewBatchVerifier(cache)
	for i := range msgs {
		bv.Add(signers[i], msgs[i], sigs[i])
	}
	if err := bv.Verify(); err == nil {
		t.Fatal("batch with a forged signature verified")
	}
	if cache.Cached(signers[forged], msgs[forged], sigs[forged]) {
		t.Fatal("forged signature was memoized")
	}
	// The memo must keep rejecting the forgery on the inline path too.
	if cache.Verify(signers[forged], msgs[forged], sigs[forged]) {
		t.Fatal("forged signature passed the caching verifier")
	}

	// A clean batch passes and memoizes every signature.
	msgs2, sigs2, signers2 := batchFixture(t, suite, n, items)
	bv = NewBatchVerifier(cache)
	for i := range msgs2 {
		bv.Add(signers2[i], msgs2[i], sigs2[i])
	}
	if err := bv.Verify(); err != nil {
		t.Fatalf("clean batch rejected: %v", err)
	}
	for i := range msgs2 {
		if !cache.Cached(signers2[i], msgs2[i], sigs2[i]) {
			t.Fatalf("valid signature %d not memoized", i)
		}
	}
	// Re-verification is a memo hit.
	before, _ := cache.Stats()
	if !cache.Verify(signers2[0], msgs2[0], sigs2[0]) {
		t.Fatal("memoized signature rejected")
	}
	if after, _ := cache.Stats(); after != before+1 {
		t.Fatalf("expected a memo hit, hits %d -> %d", before, after)
	}
}

func TestBatchVerifierRejectsForgeryEd25519(t *testing.T) {
	testForgedBatch(t, NewEd25519Suite(4, 1))
}

func TestBatchVerifierRejectsForgeryNop(t *testing.T) {
	testForgedBatch(t, NewNopSuite(4))
}

func TestVerifyCacheKeyBindsSignature(t *testing.T) {
	// A cached (signer, msg) must not admit a different signature for the
	// same message: the bogus share could be aggregated into a PoA/QC
	// that other replicas reject.
	suite := NewEd25519Suite(4, 1)
	cache := NewVerifyCache(suite.Verifier(), 0)
	msg := []byte("the message")
	sig := suite.Signer(0).Sign(msg)
	if !cache.Verify(0, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	bogus := append([]byte(nil), sig...)
	bogus[0] ^= 1
	if cache.Verify(0, msg, bogus) {
		t.Fatal("different signature admitted via memo")
	}
}

// countingVerifier counts the raw verifications that reach it.
type countingVerifier struct {
	Verifier
	raw atomic.Int64
}

func (c *countingVerifier) Verify(signer types.NodeID, msg, sig []byte) bool {
	c.raw.Add(1)
	return c.Verifier.Verify(signer, msg, sig)
}

// TestOwnSignaturesEnterMemo: a signature made through the cache's signer
// wrapper is memoized as it is made, so a certificate that aggregates the
// verifier's own share costs q-1 raw verifications; a share that merely
// claims the verifier's name is still checked, fails, and is never cached.
func TestOwnSignaturesEnterMemo(t *testing.T) {
	const self = types.NodeID(2)
	suite := NewEd25519Suite(4, 1)
	committee := types.NewCommittee(4)
	raw := &countingVerifier{Verifier: suite.Verifier()}
	cache := NewVerifyCache(raw, 0)
	own := cache.Signer(suite.Signer(self))
	if own.ID() != self {
		t.Fatalf("wrapped signer ID = %s", own.ID())
	}

	qc := &types.CommitQC{Slot: 7, Digest: types.Digest{7}, Fast: true}
	msg := (&types.PrepVote{Slot: 7, Digest: types.Digest{7}, Strong: true}).SigningBytes()
	for i := 0; i < 4; i++ {
		signer := suite.Signer(types.NodeID(i))
		if types.NodeID(i) == self {
			signer = own
		}
		qc.Shares = append(qc.Shares, types.SigShare{Signer: types.NodeID(i), Sig: signer.Sign(msg)})
	}
	if err := VerifyCommitQC(cache, committee, qc); err != nil {
		t.Fatal(err)
	}
	if got := raw.raw.Load(); got != 3 {
		t.Fatalf("CommitQC with the verifier's own share cost %d raw verifications, want q-1 = 3", got)
	}

	// A forged share under the verifier's own name was never produced by
	// the wrapped signer: it alone reaches the raw verifier (the other three
	// are memo hits by now), fails, and stays out of the memo.
	forged := *qc
	forged.Shares = append([]types.SigShare(nil), qc.Shares...)
	bad := append([]byte(nil), qc.Shares[self].Sig...)
	bad[0] ^= 1
	forged.Shares[self].Sig = bad
	if err := VerifyCommitQC(cache, committee, &forged); err == nil {
		t.Fatal("forged own-name share accepted")
	}
	if cache.Cached(self, msg, bad) {
		t.Fatal("forged share was cached")
	}
	if got := raw.raw.Load(); got <= 3 {
		t.Fatalf("forged own-name share never reached the raw verifier (%d raw verifications)", got)
	}
}

func TestVerifyCacheBounded(t *testing.T) {
	suite := NewNopSuite(1)
	cache := NewVerifyCache(suite.Verifier(), 8)
	signer := suite.Signer(0)
	for i := 0; i < 100; i++ {
		msg := []byte(fmt.Sprintf("m%d", i))
		cache.Verify(0, msg, signer.Sign(msg))
	}
	cache.mu.RLock()
	young, old := len(cache.young), len(cache.old)
	cache.mu.RUnlock()
	if young+old > 16 {
		t.Fatalf("cache grew past 2x capacity: young=%d old=%d", young, old)
	}
}

func TestVerifyCacheConcurrent(t *testing.T) {
	suite := NewEd25519Suite(4, 1)
	cache := NewVerifyCache(suite.Verifier(), 64)
	msgs, sigs, signers := batchFixture(t, suite, 4, 32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range msgs {
				if !cache.Verify(signers[i], msgs[i], sigs[i]) {
					t.Error("valid signature rejected concurrently")
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkVerifyPipeline compares the sequential inline verification the
// event loop used to do against the staged pipeline's primitives: batch
// verification spread across cores, and the memoized re-check that the
// state machine performs on pre-verified messages.
func BenchmarkVerifyPipeline(b *testing.B) {
	const n, items = 4, 64
	suite := NewEd25519Suite(n, 1)
	msgs, sigs, signers := batchFixture(b, suite, n, items)
	verifier := suite.Verifier()

	b.Run("sequential-inline", func(b *testing.B) {
		b.SetBytes(items)
		for i := 0; i < b.N; i++ {
			for j := range msgs {
				if !verifier.Verify(signers[j], msgs[j], sigs[j]) {
					b.Fatal("verify failed")
				}
			}
		}
	})

	b.Run(fmt.Sprintf("batch-parallel-%d", gort.GOMAXPROCS(0)), func(b *testing.B) {
		b.SetBytes(items)
		for i := 0; i < b.N; i++ {
			bv := NewBatchVerifier(verifier)
			for j := range msgs {
				bv.Add(signers[j], msgs[j], sigs[j])
			}
			if err := bv.Verify(); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("memo-hit", func(b *testing.B) {
		cache := NewVerifyCache(verifier, items*2)
		for j := range msgs {
			cache.Verify(signers[j], msgs[j], sigs[j])
		}
		b.ResetTimer()
		b.SetBytes(items)
		for i := 0; i < b.N; i++ {
			for j := range msgs {
				if !cache.Verify(signers[j], msgs[j], sigs[j]) {
					b.Fatal("memo verify failed")
				}
			}
		}
	})
}
