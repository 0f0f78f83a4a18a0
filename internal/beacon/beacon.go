// Package beacon implements an anytrust randomness beacon for Dissent:
// a publicly verifiable, unbiasable source of per-round randomness
// driving slot-schedule rotation, shuffle challenges, and epoch churn.
//
// Each beacon round, every one of the m anytrust servers produces a
// share: a Schnorr signature over the previous beacon value and the
// round number. Shares are exchanged commit-then-reveal — a server
// first broadcasts H(share) and reveals the share only after seeing
// every commitment — so no server can choose its share as a function
// of the others'. The round's output chains drand-style:
//
//	value_r = H(prev_value || r || share_0 || ... || share_{m-1})
//
// Because a Schnorr signature is unforgeable, a share cannot be
// computed without the server's private key, and because of the
// commit–reveal exchange, the combined value is unpredictable and
// unbiasable as long as at least one server is honest — the same
// anytrust assumption the rest of Dissent already makes (§3.1 of the
// paper). Anyone holding the group definition can verify a chain from
// its genesis value with public keys alone.
//
// The package is transport-agnostic: Round drives one commit–reveal
// exchange, Chain stores and verifies the resulting entries (in
// memory, optionally written through a KVStore bucket), Sync catches a
// node up over any Source, and httpapi.go provides the HTTP surface
// cmd/dissentd mounts.
package beacon

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"dissent/internal/crypto"
)

// ValueLen is the byte length of beacon values (SHA-256 output).
const ValueLen = 32

// Value is one beacon output.
type Value = [ValueLen]byte

// Domain strings for the beacon's hash and signature contexts.
const (
	shareDomain   = "dissent/beacon-share"
	commitDomain  = "dissent/beacon-share-commit"
	valueDomain   = "dissent/beacon-value"
	genesisDomain = "dissent/beacon-genesis"
)

// GenesisValue derives a group's beacon genesis from its
// self-certifying group ID, so independent nodes agree on round-0
// input without communication — external verifiers need nothing
// beyond group.json.
//
// This group-wide genesis is only the chain's *pre-session* anchor:
// once a session's slot schedule certifies, nodes rebind their (still
// empty) chains to SessionGenesis, which folds the schedule
// certificate digest into the genesis. Trusted-bootstrap harnesses,
// which certify no schedule, keep this value.
func GenesisValue(groupID [32]byte) Value {
	var v Value
	copy(v[:], crypto.Hash(genesisDomain, groupID[:]))
	return v
}

// SessionGenesis binds a chain's genesis to one protocol session: the
// group ID plus the digest of the session's schedule certificate (the
// shuffled slot-key list and every server's signature over it). DC-net
// round numbers restart with each session, so without this binding an
// archived previous-session chain would verify identically to the live
// one; with it, a verifier that authenticates the schedule certificate
// (its signatures check against group.json alone) rejects any chain
// grown under a different session's certificate.
func SessionGenesis(groupID [32]byte, certDigest [32]byte) Value {
	var v Value
	copy(v[:], crypto.Hash(genesisDomain, groupID[:], certDigest[:]))
	return v
}

// shareMessage is the byte string a share signs: the previous beacon
// value chained with the round number.
func shareMessage(prev Value, round uint64) []byte {
	return crypto.Hash("dissent/beacon-share-msg", prev[:], crypto.HashUint64(round))
}

// MakeShare produces this server's share for a beacon round: a Schnorr
// signature, under its identity key, over the previous value and round.
func MakeShare(kp *crypto.KeyPair, round uint64, prev Value, rand io.Reader) ([]byte, error) {
	sig, err := kp.Sign(shareDomain, shareMessage(prev, round), rand)
	if err != nil {
		return nil, fmt.Errorf("beacon: share for round %d: %w", round, err)
	}
	return crypto.EncodeSignature(kp.Group, sig), nil
}

// CommitShare returns the binding commitment a server broadcasts
// before revealing its share.
func CommitShare(share []byte) []byte {
	return crypto.Hash(commitDomain, share)
}

// VerifyShare checks that share is a valid signature by pub over the
// chained (prev, round) message.
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

// Entry is one link of the beacon chain: the round number, the
// previous entry's value, every server's share, and the chained output.
type Entry struct {
	Round  uint64
	Prev   Value
	Value  Value
	Shares [][]byte // one per server, in server-index order
}

// computeValue chains the round output from its inputs.
func computeValue(prev Value, round uint64, shares [][]byte) Value {
	parts := make([][]byte, 0, len(shares)+2)
	parts = append(parts, prev[:], crypto.HashUint64(round))
	parts = append(parts, shares...)
	var v Value
	copy(v[:], crypto.Hash(valueDomain, parts...))
	return v
}

// NewEntry assembles a chain entry from a complete share set. It does
// not verify the shares; see VerifyEntry.
func NewEntry(round uint64, prev Value, shares [][]byte) *Entry {
	cp := make([][]byte, len(shares))
	for i, s := range shares {
		cp[i] = append([]byte(nil), s...)
	}
	return &Entry{Round: round, Prev: prev, Value: computeValue(prev, round, cp), Shares: cp}
}

// VerifyEntry fully verifies one entry against the chain value it
// claims to extend: exactly one share per server, every share a valid
// signature over (prev, round), the declared Prev matching the actual
// predecessor, and the output value correctly chained. Tampering with
// any share, the round, Prev, or Value fails this check.
func VerifyEntry(g crypto.Group, serverPubs []crypto.Element, prev Value, e *Entry) error {
	if e == nil {
		return errors.New("beacon: nil entry")
	}
	if e.Prev != prev {
		return fmt.Errorf("beacon: entry %d chains from %x, want %x", e.Round, e.Prev[:8], prev[:8])
	}
	if len(e.Shares) != len(serverPubs) {
		return fmt.Errorf("beacon: entry %d has %d shares, want %d", e.Round, len(e.Shares), len(serverPubs))
	}
	for i, pub := range serverPubs {
		if err := VerifyShare(g, pub, e.Round, prev, e.Shares[i]); err != nil {
			return fmt.Errorf("beacon: entry %d server %d: %w", e.Round, i, err)
		}
	}
	if want := computeValue(prev, e.Round, e.Shares); want != e.Value {
		return fmt.Errorf("beacon: entry %d value mismatch", e.Round)
	}
	return nil
}

// Round drives one commit–reveal beacon exchange at a participant.
// Commits must all be recorded before any reveal is accepted from this
// participant's perspective of honesty; Reveal checks each share
// against its commitment and signature.
type Round struct {
	g     crypto.Group
	pubs  []crypto.Element
	round uint64
	prev  Value

	commits [][]byte
	shares  [][]byte
	nShares int
}

// NewRound starts a beacon round chaining from prev.
func NewRound(g crypto.Group, serverPubs []crypto.Element, round uint64, prev Value) *Round {
	return &Round{
		g:       g,
		pubs:    serverPubs,
		round:   round,
		prev:    prev,
		commits: make([][]byte, len(serverPubs)),
		shares:  make([][]byte, len(serverPubs)),
	}
}

// Prev returns the chain value this round extends.
func (r *Round) Prev() Value { return r.prev }

// Commit records server i's share commitment. A conflicting duplicate
// is an error; an identical duplicate is idempotent.
func (r *Round) Commit(i int, commit []byte) error {
	if i < 0 || i >= len(r.pubs) {
		return fmt.Errorf("beacon: commit from out-of-range server %d", i)
	}
	if len(commit) == 0 {
		return fmt.Errorf("beacon: empty commitment from server %d", i)
	}
	if r.commits[i] != nil {
		if !bytes.Equal(r.commits[i], commit) {
			return fmt.Errorf("beacon: server %d equivocated its commitment", i)
		}
		return nil
	}
	r.commits[i] = append([]byte(nil), commit...)
	return nil
}

// Reveal records server i's share, checking it against the recorded
// commitment and verifying the signature.
func (r *Round) Reveal(i int, share []byte) error {
	if i < 0 || i >= len(r.pubs) {
		return fmt.Errorf("beacon: reveal from out-of-range server %d", i)
	}
	if r.commits[i] == nil {
		return fmt.Errorf("beacon: server %d revealed before committing", i)
	}
	if !bytes.Equal(CommitShare(share), r.commits[i]) {
		return fmt.Errorf("beacon: server %d share does not match its commitment", i)
	}
	if err := VerifyShare(r.g, r.pubs[i], r.round, r.prev, share); err != nil {
		return err
	}
	if r.shares[i] == nil {
		r.shares[i] = append([]byte(nil), share...)
		r.nShares++
	}
	return nil
}

// Complete reports whether every server has revealed a valid share.
func (r *Round) Complete() bool { return r.nShares == len(r.pubs) }

// Entry assembles the verified chain entry once the round is complete.
func (r *Round) Entry() (*Entry, error) {
	if !r.Complete() {
		return nil, fmt.Errorf("beacon: round %d has %d/%d shares", r.round, r.nShares, len(r.pubs))
	}
	return NewEntry(r.round, r.prev, r.shares), nil
}
