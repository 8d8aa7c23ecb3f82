package types

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// SigShare is one replica's signature over a message's signing bytes.
// Quorum certificates aggregate SigShares; with threshold signatures these
// would collapse into a single share (see crypto.Aggregator).
type SigShare struct {
	Signer NodeID
	Sig    []byte
}

// Proposal is a data proposal — the payload of a "car" (Certification of
// Available Request) in a replica's lane (§5.1). It carries a batch of
// transactions, the position within the lane, a hash-link to the previous
// proposal, and the PoA certifying the parent (proving, transitively, the
// availability of the whole history).
type Proposal struct {
	// Lane is the proposing replica (lanes are owned 1:1 by replicas).
	Lane NodeID
	// Position within the lane; positions start at 1 and must be gap-free.
	Position Pos
	// Parent is the digest of the proposal at Position-1 (ZeroDigest at
	// position 1).
	Parent Digest
	// ParentPoA certifies the parent proposal (nil at position 1). Voting
	// replicas store it as the lane's latest certified tip.
	ParentPoA *PoA
	// Batch is the transaction payload.
	Batch *Batch
	// Sig is the proposer's signature over SigningBytes().
	Sig []byte

	// dig memoizes Digest() (see Batch.dig): the proposal digest embeds
	// the batch digest, so caching both keeps payload hashing entirely on
	// the first caller — the parallel pre-verification stage.
	dig atomic.Pointer[Digest]
}

// Digest returns the proposal's content hash (memoized after the first
// call), binding lane, position, parent link and batch contents. PoAs
// and signatures are excluded: a proposal's identity is its chain
// position and payload. A proposal must not be mutated after its first
// Digest call.
func (p *Proposal) Digest() Digest {
	if d := p.dig.Load(); d != nil {
		return *d
	}
	d := p.computeDigest()
	p.dig.Store(&d)
	return d
}

func (p *Proposal) computeDigest() Digest {
	h := sha256.New()
	var hdr [8 + 2 + 8]byte
	copy(hdr[:8], "carv1\x00\x00\x00")
	binary.LittleEndian.PutUint16(hdr[8:], uint16(p.Lane))
	binary.LittleEndian.PutUint64(hdr[10:], uint64(p.Position))
	h.Write(hdr[:])
	h.Write(p.Parent[:])
	bd := p.Batch.Digest()
	h.Write(bd[:])
	var d Digest
	h.Sum(d[:0])
	return d
}

// Clone returns a shallow copy (batch, PoA and signature shared) with a
// fresh digest memo — see Batch.Clone for why proposals must not be
// copied by value.
func (p *Proposal) Clone() *Proposal {
	return &Proposal{
		Lane:      p.Lane,
		Position:  p.Position,
		Parent:    p.Parent,
		ParentPoA: p.ParentPoA,
		Batch:     p.Batch,
		Sig:       p.Sig,
	}
}

// SigningBytes returns the bytes the proposer signs.
func (p *Proposal) SigningBytes() []byte {
	d := p.Digest()
	out := make([]byte, 0, 8+DigestSize)
	out = append(out, []byte("prop-sig")...)
	out = append(out, d[:]...)
	return out
}

func (p *Proposal) String() string {
	return fmt.Sprintf("Prop{lane=%s pos=%d txs=%d}", p.Lane, p.Position, p.Batch.Count)
}

// Vote acknowledges delivery of a proposal (§5.1 step 2). f+1 matching
// votes form a PoA. Votes are addressed to the proposer.
type Vote struct {
	Lane     NodeID
	Position Pos
	Digest   Digest
	Voter    NodeID
	Sig      []byte
}

// SigningBytes returns the bytes the voter signs: the vote binds the lane,
// position and proposal digest (not the voter, which is authenticated by
// the signature itself).
func (v *Vote) SigningBytes() []byte { return voteSigningBytes(v.Lane, v.Position, v.Digest) }

func voteSigningBytes(lane NodeID, pos Pos, d Digest) []byte {
	out := make([]byte, 0, 8+2+8+DigestSize)
	out = append(out, []byte("carvote\x00")...)
	var b [10]byte
	binary.LittleEndian.PutUint16(b[:], uint16(lane))
	binary.LittleEndian.PutUint64(b[2:], uint64(pos))
	out = append(out, b[:]...)
	out = append(out, d[:]...)
	return out
}

// PoA is a Proof of Availability: f+1 matching votes for one proposal,
// guaranteeing at least one correct replica holds the data and — because
// correct replicas vote in FIFO lane order — its entire history (§5.1).
type PoA struct {
	Lane     NodeID
	Position Pos
	Digest   Digest
	Shares   []SigShare
}

// SigningBytes returns the byte string every share must have signed.
func (p *PoA) SigningBytes() []byte { return voteSigningBytes(p.Lane, p.Position, p.Digest) }

// Signers returns the set of replicas that contributed shares.
func (p *PoA) Signers() []NodeID {
	out := make([]NodeID, len(p.Shares))
	for i, s := range p.Shares {
		out[i] = s.Signer
	}
	return out
}

func (p *PoA) String() string {
	return fmt.Sprintf("PoA{lane=%s pos=%d votes=%d}", p.Lane, p.Position, len(p.Shares))
}

// TipRef references the latest proposal of one lane inside a consensus cut.
// A certified tip carries the PoA; an optimistic or leader tip (§5.5.2)
// carries only (digest, position) and Cert == nil.
type TipRef struct {
	Lane     NodeID
	Position Pos
	Digest   Digest
	// Cert is the tip's PoA; nil for optimistic/leader tips.
	Cert *PoA
}

// Certified reports whether the tip carries an availability proof.
func (t TipRef) Certified() bool { return t.Cert != nil }

// Empty reports whether the tip references the lane genesis (no proposals).
func (t TipRef) Empty() bool { return t.Position == 0 }

// Cut is a consensus proposal payload: a snapshot of all n lanes, one tip
// per lane, indexed by lane ID (§5.2). Committing a cut commits, for each
// lane, every proposal up to and including the tip.
type Cut struct {
	Tips []TipRef
}

// NewEmptyCut returns a cut with n genesis tips.
func NewEmptyCut(n int) Cut {
	tips := make([]TipRef, n)
	for i := range tips {
		tips[i] = TipRef{Lane: NodeID(i)}
	}
	return Cut{Tips: tips}
}

// Digest hashes the cut's tip references.
func (c Cut) Digest() Digest {
	h := sha256.New()
	h.Write([]byte("cutv1\x00\x00\x00"))
	for _, t := range c.Tips {
		var b [10]byte
		binary.LittleEndian.PutUint16(b[:], uint16(t.Lane))
		binary.LittleEndian.PutUint64(b[2:], uint64(t.Position))
		h.Write(b[:])
		h.Write(t.Digest[:])
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// Validate checks structural sanity: exactly n tips, one per lane, in
// lane order.
func (c Cut) Validate(committee Committee) error {
	if len(c.Tips) != committee.Size() {
		return fmt.Errorf("cut: %d tips for committee of %d", len(c.Tips), committee.Size())
	}
	for i, t := range c.Tips {
		if t.Lane != NodeID(i) {
			return fmt.Errorf("cut: tip %d references lane %s", i, t.Lane)
		}
		if t.Position == 0 && !t.Digest.IsZero() {
			return fmt.Errorf("cut: lane %s genesis tip with non-zero digest", t.Lane)
		}
		if t.Cert != nil && (t.Cert.Lane != t.Lane || t.Cert.Position != t.Position || t.Cert.Digest != t.Digest) {
			return fmt.Errorf("cut: lane %s tip PoA mismatch", t.Lane)
		}
	}
	return nil
}

// NewTipsVersus counts how many tips in c strictly advance beyond the
// positions recorded in base (a last-committed or last-proposed frontier).
// The consensus layer's lane-coverage rule (§5.2.3) compares against this.
func (c Cut) NewTipsVersus(base []Pos) int {
	count := 0
	for i, t := range c.Tips {
		if i < len(base) && t.Position > base[i] {
			count++
		}
	}
	return count
}
