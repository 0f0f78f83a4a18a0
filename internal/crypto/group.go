// Package crypto provides the cryptographic substrate for Dissent:
// prime-order group abstractions (NIST P-256 and an RFC 3526 Schnorr
// group), ElGamal encryption with message embedding, Chaum–Pedersen
// discrete-log equality proofs, Schnorr signatures, Diffie–Hellman
// shared secrets, and deterministic PRNG streams used to build DC-net
// ciphertexts.
//
// Everything in this package is built on the Go standard library only.
package crypto

import (
	"crypto/rand"
	"errors"
	"io"
	"math/big"
)

// Element is an opaque group element. Elements are immutable: group
// operations always allocate fresh results.
type Element interface {
	// String returns a short human-readable form for debugging.
	String() string
}

// Group abstracts a cyclic group of prime order in which the decisional
// Diffie–Hellman problem is assumed hard. Dissent uses two concrete
// groups: ECGroup (P-256) for pseudonym-key shuffles, where elements are
// already keys and no message embedding is needed, and ModPGroup
// (RFC 3526 2048-bit) for general message shuffles, where arbitrary
// byte strings must be embedded into elements (§3.10 of the paper).
type Group interface {
	// Name identifies the group, e.g. "P-256" or "modp-2048".
	Name() string
	// Order returns the prime order q of the group.
	Order() *big.Int
	// Generator returns the standard base point/element g.
	Generator() Element
	// Identity returns the neutral element.
	Identity() Element

	// Add returns a+b (elliptic notation; multiplication for mod-p groups).
	Add(a, b Element) Element
	// Neg returns the inverse of a.
	Neg(a Element) Element
	// ScalarMult returns k*a.
	ScalarMult(a Element, k *big.Int) Element
	// BaseMult returns k*g, typically faster than ScalarMult(Generator(), k).
	BaseMult(k *big.Int) Element
	// Equal reports whether a and b are the same element.
	Equal(a, b Element) bool
	// IsIdentity reports whether a is the neutral element.
	IsIdentity(a Element) bool

	// Encode serializes an element to a canonical fixed-length form.
	Encode(a Element) []byte
	// Decode parses an element encoded by Encode, validating membership.
	Decode(data []byte) (Element, error)
	// ElementLen returns the length in bytes of Encode's output.
	ElementLen() int

	// RandomScalar returns a uniform scalar in [1, q-1].
	RandomScalar(r io.Reader) (*big.Int, error)
	// RandomElement returns a uniform non-identity element.
	RandomElement(r io.Reader) (Element, error)

	// HashToElement maps seed to a non-identity element by hashing it
	// with a counter until the digest lands in the group. Unlike k·g for
	// a hashed k, nobody learns a discrete-log relation between the
	// result and the generator or any other element, which is what a
	// Pedersen-style commitment base needs.
	HashToElement(seed []byte) Element

	// Embed maps a message of at most EmbedLimit bytes into an element
	// such that Extract recovers it. Embedding is randomized
	// (try-and-increment) and may consult r for padding.
	Embed(msg []byte, r io.Reader) (Element, error)
	// Extract recovers a message embedded by Embed.
	Extract(a Element) ([]byte, error)
	// EmbedLimit returns the maximum message length Embed accepts.
	EmbedLimit() int
}

// Errors shared by group implementations.
var (
	ErrBadElement   = errors.New("crypto: malformed or out-of-group element")
	ErrEmbedTooLong = errors.New("crypto: message too long to embed")
	ErrNotEmbedded  = errors.New("crypto: element does not carry an embedded message")
)

// randScalar returns a uniform scalar in [1, q-1] using rejection sampling.
func randScalar(r io.Reader, q *big.Int) (*big.Int, error) {
	if r == nil {
		r = rand.Reader
	}
	for {
		k, err := rand.Int(r, q)
		if err != nil {
			return nil, err
		}
		if k.Sign() != 0 {
			return k, nil
		}
	}
}

// KeyPair is a group keypair: Public = Private * g. It serves both as a
// long-term node identity (for Schnorr signatures and DH shared secrets)
// and as a pseudonym slot key.
type KeyPair struct {
	Group   Group
	Private *big.Int
	Public  Element
}

// GenerateKeyPair creates a fresh keypair in g. If r is nil, crypto/rand
// is used.
func GenerateKeyPair(g Group, r io.Reader) (*KeyPair, error) {
	priv, err := g.RandomScalar(r)
	if err != nil {
		return nil, err
	}
	return &KeyPair{Group: g, Private: priv, Public: g.BaseMult(priv)}, nil
}

// PublicOnly wraps a bare public element as a KeyPair with no private part.
func PublicOnly(g Group, pub Element) *KeyPair {
	return &KeyPair{Group: g, Public: pub}
}

// SharedSecret computes the Diffie–Hellman shared point priv * peerPub.
// Both directions of a client/server pair derive the same point, which
// seeds their pairwise PRNG streams (§3.4). The returned element must be
// hashed (see SecretSeed) before use as key material.
func (kp *KeyPair) SharedSecret(peer Element) (Element, error) {
	if kp.Private == nil {
		return nil, errors.New("crypto: shared secret requires a private key")
	}
	if kp.Group.IsIdentity(peer) {
		return nil, ErrBadElement
	}
	return kp.Group.ScalarMult(peer, kp.Private), nil
}

// SecretSeed hashes a DH shared point into a 32-byte seed bound to the
// group and both parties' public keys, preventing cross-context reuse.
func SecretSeed(g Group, shared, pubA, pubB Element) []byte {
	// Order the public keys canonically so both sides derive the same seed.
	ea, eb := g.Encode(pubA), g.Encode(pubB)
	if compareBytes(ea, eb) > 0 {
		ea, eb = eb, ea
	}
	return Hash("dissent/shared-seed", []byte(g.Name()), g.Encode(shared), ea, eb)
}

func compareBytes(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}
