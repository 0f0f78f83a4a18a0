// Package beacon implements the anytrust randomness beacon for Dissent:
// a publicly verifiable, unbiasable source of per-round randomness
// driving slot-schedule rotation, shuffle challenges, and epoch churn.
//
// The beacon runs no exchange of its own. A certified DC-net round ends
// in one collective Schnorr signature σ_r under the servers' aggregate
// key X̃, over CertDigest: the round, its participation count,
// H(cleartext) and prev, the value of the last entry before round r
// (the genesis for the first). That round certificate is the round's
// entry, and the output chains drand-style:
//
//	value_r = H(prev || r || σ_r)
//
// The value is fixed once every server has committed to its nonce and
// unpredictable until the last honest partial response, so it is
// unbiasable while one server is honest — the anytrust assumption of
// §3.1 of the paper — up to the one bit a server gets by withholding
// its response, which forces a retry. Anyone holding the group
// definition checks an entry with one signature verification.
//
// Chain stores and verifies entries (optionally through a KVStore
// bucket), Sync catches a node up over any Source, and httpapi.go is
// the HTTP surface the dissent SDK mounts.
package beacon

import (
	"fmt"
	"io"

	"dissent/internal/crypto"
	"dissent/internal/wire"
)

// ValueLen is the byte length of beacon values (SHA-256 output).
const ValueLen = 32

// Value is one beacon output.
type Value = [ValueLen]byte

// CertContext is the signature context of a round certificate.
const CertContext = "dissent/cleartext"

// Domain strings for the beacon's hash and signature contexts.
const (
	certDomain      = "dissent/cleartext-cert"
	cleartextDomain = "dissent/cleartext-hash"
	shareDomain     = "dissent/beacon-share"
	valueDomain     = "dissent/beacon-value"
	genesisDomain   = "dissent/beacon-genesis"
)

// GenesisValue derives a group's beacon genesis from its
// self-certifying group ID, so nodes agree on it from group.json alone.
// It is the chain's pre-session anchor: once a session's slot schedule
// certifies, nodes rebind their (still empty) chains to SessionGenesis.
// Trusted-bootstrap harnesses, which certify no schedule, keep it, and a
// group without the beacon certifies every round against it
// (CertDigest's prev), so every certificate binds its group.
func GenesisValue(groupID [32]byte) Value {
	var v Value
	copy(v[:], crypto.Hash(genesisDomain, groupID[:]))
	return v
}

// SessionGenesis binds a chain's genesis to one protocol session: the
// group ID plus the digest of its schedule certificate (the shuffled
// slot keys and every server's signature over them). Round numbers
// restart with each session; with this binding, a verifier that checks
// the certificate against group.json rejects an archived chain of
// another session replayed as live.
func SessionGenesis(groupID [32]byte, certDigest [32]byte) Value {
	var v Value
	copy(v[:], crypto.Hash(genesisDomain, groupID[:], certDigest[:]))
	return v
}

// CleartextHash is H(cleartext), the one input of a round certificate
// an entry carries in place of the cleartext itself.
func CleartextHash(cleartext []byte) Value {
	var v Value
	copy(v[:], crypto.Hash(cleartextDomain, cleartext))
	return v
}

// CertDigest is the digest a round certificate signs under CertContext:
// round, its participation count, H(cleartext) and prev, the beacon
// head the round chains on. Every genesis hashes the group ID, so the
// digest binds the group and, past setup, the session.
func CertDigest(round uint64, count uint32, cleartext, prev Value) []byte {
	return crypto.Hash(certDomain, crypto.HashUint64(round), crypto.HashUint64(uint64(count)), cleartext[:], prev[:])
}

// shareMessage is the byte string a share signs: the previous beacon
// value chained with the round number.
func shareMessage(prev Value, round uint64) []byte {
	return crypto.Hash("dissent/beacon-share-msg", prev[:], crypto.HashUint64(round))
}

// MakeShare signs one server's share of a per-server beacon round over
// the previous value and round. No round runs it — the round
// certificate is the entry — but benchmark/probes.go times it.
func MakeShare(kp *crypto.KeyPair, round uint64, prev Value, rand io.Reader) ([]byte, error) {
	sig, err := kp.Sign(shareDomain, shareMessage(prev, round), rand)
	if err != nil {
		return nil, fmt.Errorf("beacon: share for round %d: %w", round, err)
	}
	return crypto.EncodeSignature(kp.Group, sig), nil
}

// VerifyShare checks a MakeShare share by pub over the chained (prev,
// round) message.
func VerifyShare(g crypto.Group, pub crypto.Element, round uint64, prev Value, share []byte) error {
	sig, err := crypto.DecodeSignature(g, share)
	if err != nil {
		return fmt.Errorf("beacon: round %d share: %w", round, err)
	}
	if err := crypto.Verify(g, pub, shareDomain, shareMessage(prev, round), sig); err != nil {
		return fmt.Errorf("beacon: round %d share: %w", round, err)
	}
	return nil
}

// Entry is one link of the beacon chain: a certified round's
// certificate with the digest inputs a verifier lacks, the value it
// chains from and the value it yields.
type Entry struct {
	Round     uint64
	Count     uint32 // the round's participation count
	Cleartext Value  // CleartextHash of the round's cleartext
	Sig       []byte // σ, the round certificate under the aggregate key
	Prev      Value
	Value     Value
}

// Fields lays out an entry as the chain's store records it.
func (e *Entry) Fields(c *wire.Codec) {
	c.U64(&e.Round)
	c.U32(&e.Count)
	c.Fixed(e.Cleartext[:])
	c.Bytes(&e.Sig)
	c.Fixed(e.Prev[:])
	c.Fixed(e.Value[:])
}

// computeValue chains the round output from its inputs.
func computeValue(prev Value, round uint64, sig []byte) Value {
	var v Value
	copy(v[:], crypto.Hash(valueDomain, prev[:], crypto.HashUint64(round), sig))
	return v
}

// NewEntry assembles the entry of a round certified with sig, chained on
// prev. It copies sig and does not verify it; see Chain.VerifyEntry.
func NewEntry(round uint64, count uint32, cleartext Value, sig []byte, prev Value) *Entry {
	sig = append([]byte(nil), sig...)
	return &Entry{Round: round, Count: count, Cleartext: cleartext, Sig: sig, Prev: prev,
		Value: computeValue(prev, round, sig)}
}
