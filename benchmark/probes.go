package main

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"runtime/debug"

	"repro/internal/crypto"
	"repro/internal/exec"
	"repro/internal/gateway"
	"repro/internal/mempool"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/wire"
)

// The layer probes time each layer's public functions on inputs shaped
// like the workload's, from outside, at fixed iteration counts. They run
// once, after a traced workload has finished and its deployment is gone.

// sink keeps probe results live so the compiler cannot drop the calls.
var sink any

// timeOp runs fn iters times, in probeRounds rounds, and returns the
// fastest round's nanoseconds per call (interference only ever adds time)
// and the heap allocations per call.
func timeOp(iters int, fn func()) (ns, allocs float64) {
	fn() // warm caches and pools
	per := iters / probeRounds
	if per < 1 {
		per = 1
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	best := int64(math.MaxInt64)
	for r := 0; r < probeRounds; r++ {
		t0 := nowNs()
		for i := 0; i < per; i++ {
			fn()
		}
		if dt := nowNs() - t0; dt < best {
			best = dt
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(best) / float64(per), float64(m1.Mallocs-m0.Mallocs) / float64(per*probeRounds)
}

const probeRounds = 5

func randomTxs(rng *rand.Rand, n, size int) []types.Transaction {
	txs := make([]types.Transaction, n)
	for i := range txs {
		tx := make([]byte, size)
		for j := 0; j+8 <= size; j += 8 {
			binary.LittleEndian.PutUint64(tx[j:], rng.Uint64())
		}
		txs[i] = tx
	}
	return txs
}

// commitQC builds a valid slow-path certificate with `shares` shares.
func commitQC(suite crypto.Suite, shares int) *types.CommitQC {
	qc := &types.CommitQC{Slot: 7, View: 1, Digest: types.Digest{1, 2, 3}}
	msg := (&types.ConfirmAck{Slot: qc.Slot, View: qc.View, Digest: qc.Digest}).SigningBytes()
	for i := 0; i < shares; i++ {
		id := types.NodeID(i)
		qc.Shares = append(qc.Shares, types.SigShare{Signer: id, Sig: suite.Signer(id).Sign(msg)})
	}
	return qc
}

func runProbes(o options, res *result) {
	// The workload's heap is garbage by now; collect it so the probes do
	// not time the collector.
	debug.FreeOSMemory()
	rng := rand.New(rand.NewPCG(o.seed, 0x70726f6265))

	// A car the size of this workload's mean batch (250 transactions
	// where the workload has no real batches).
	perBatch := int(res.layers["mempool.txs_per_batch"] + 0.5)
	if perBatch < 1 || o.workload == "sim_wan_blip" {
		perBatch = 250
	}
	suite4 := crypto.NewEd25519Suite(4, o.seed)
	batch := types.NewBatch(0, 1, randomTxs(rng, perBatch, txBytes), 0)
	voteMsg := (&types.Vote{Lane: 0, Position: 1}).SigningBytes()
	poa := &types.PoA{Lane: 0, Position: 1}
	for i := 0; i < 2; i++ {
		id := types.NodeID(i)
		poa.Shares = append(poa.Shares, types.SigShare{Signer: id, Sig: suite4.Signer(id).Sign(voteMsg)})
	}
	car := &types.Proposal{Lane: 0, Position: 2, ParentPoA: poa, Batch: batch, Sig: suite4.Signer(0).Sign(voteMsg)}
	vote := &types.Vote{Lane: 0, Position: 2, Voter: 1, Sig: suite4.Signer(1).Sign(voteMsg)}

	encCar, _ := wire.Encode(car)
	encVote, _ := wire.Encode(vote)
	ns, allocs := timeOp(200, func() {
		b := wire.GetBuf(wire.SizeHint(car))
		b.B, _ = wire.EncodeTo(b.B, car)
		sink = len(b.B)
		b.Release()
	})
	res.layer("wire.encode_car_us", ns/1e3)
	carAllocs := allocs
	ns, allocs = timeOp(200, func() { sink, _ = wire.DecodeFrom(encCar) })
	res.layer("wire.decode_car_us", ns/1e3)
	res.layer("wire.car_allocs", carAllocs+allocs)
	ns, _ = timeOp(200, func() { sink, _ = wire.Decode(encCar) })
	res.layer("wire.decode_car_copy_us", ns/1e3)
	ns, allocs = timeOp(20000, func() {
		b := wire.GetBuf(wire.SizeHint(vote))
		b.B, _ = wire.EncodeTo(b.B, vote)
		sink = len(b.B)
		b.Release()
	})
	res.layer("wire.encode_vote_ns", ns)
	voteAllocs := allocs
	ns, allocs = timeOp(20000, func() { sink, _ = wire.DecodeFrom(encVote) })
	res.layer("wire.decode_vote_ns", ns)
	res.layer("wire.vote_allocs", voteAllocs+allocs)

	ns, _ = timeOp(200, func() { sink = batch.Clone().Digest() })
	res.layer("types.batch_digest_us", ns/1e3)

	// crypto: one signature, then whole certificates of 3 shares (n=4)
	// and 7 shares (n=10), cold and memoized.
	signer, verifier := suite4.Signer(0), suite4.Verifier()
	sig := signer.Sign(voteMsg)
	ns, _ = timeOp(500, func() { sink = signer.Sign(voteMsg) })
	res.layer("crypto.sign_us", ns/1e3)
	ns, _ = timeOp(500, func() { sink = verifier.Verify(0, voteMsg, sig) })
	res.layer("crypto.verify_us", ns/1e3)
	suite10 := crypto.NewEd25519Suite(10, o.seed)
	for _, c := range []struct {
		name   string
		suite  crypto.Suite
		n, q   int
		memoed bool
	}{
		{"crypto.verify_cert_q3_us", suite4, 4, 3, false},
		{"crypto.verify_cert_q7_us", suite10, 10, 7, false},
		{"crypto.verify_cert_memo_ns", suite10, 10, 7, true},
	} {
		qc, committee := commitQC(c.suite, c.q), types.NewCommittee(c.n)
		if c.memoed {
			cache := crypto.NewVerifyCache(c.suite.Verifier(), 0)
			ns, _ = timeOp(20000, func() { sink = crypto.VerifyCommitQC(cache, committee, qc) })
			res.layer(c.name, ns)
			continue
		}
		ns, _ = timeOp(100, func() {
			sink = crypto.VerifyCommitQC(crypto.NewVerifyCache(c.suite.Verifier(), 0), committee, qc)
		})
		res.layer(c.name, ns/1e3)
	}

	// mempool and the gateway's envelope, per transaction.
	txs := randomTxs(rng, 1000, txBytes)
	pool := mempool.NewPool(mempool.Config{})
	i := 0
	ns, _ = timeOp(200000, func() { sink = pool.AddTx(txs[i%len(txs)], 0); i++ })
	res.layer("mempool.addtx_ns", ns)
	ns, _ = timeOp(200000, func() {
		_, seq, _ := gateway.ParseTx(gateway.WrapTx(9, uint64(i), txs[i%len(txs)]))
		sink = seq
		i++
	})
	res.layer("gateway.envelope_ns", ns)

	// exec: apply one 1000-transaction batch.
	machine := exec.New()
	big := types.NewBatch(0, 2, txs, 0)
	slot := types.Slot(0)
	ns, _ = timeOp(200, func() { slot++; sink = machine.Apply(slot, 0, types.Pos(slot), big.Digest(), big) })
	res.layer("exec.apply_us_per_ktx", ns/1e3)

	// storage: journal-sized records into a fresh WAL, then the flush that
	// ends a group commit of 64 appends.
	if dir, err := o.scratchDir("probe-wal"); err == nil {
		if st, err := storage.Open(filepath.Join(dir, "probe.wal")); err == nil {
			key, val := make([]byte, 24), make([]byte, 160)
			put := func() {
				i++
				binary.LittleEndian.PutUint32(key, uint32(i))
				sink = st.Put(key, val)
			}
			ns, _ = timeOp(20000, put)
			res.layer("storage.put_us", ns/1e3)
			var flushNs int64
			const flushes = 200
			for f := 0; f < flushes; f++ {
				for j := 0; j < 64; j++ {
					put()
				}
				t0 := nowNs()
				sink = st.Flush()
				flushNs += nowNs() - t0
			}
			res.layer("storage.flush_us", float64(flushNs)/flushes/1e3)
			st.Close()
		}
	}

	simFaultFree(o.seed, res)
}
