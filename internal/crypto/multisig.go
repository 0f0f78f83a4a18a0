package crypto

import (
	"errors"
	"math/big"
)

// Multisig is the fixed signer set of an n-of-n Schnorr multisignature
// with MuSig-style key aggregation: X̃ = Σ aᵢ·Xᵢ, aᵢ = H(all keys, Xᵢ).
// The coefficients bind every key to the whole ordered list, so a
// signer who picks its key as a function of the others' (X' = X* − ΣXⱼ)
// cannot cancel them out of the aggregate — no proof of possession is
// needed. A signature (c, Σzᵢ) combined from every signer's partial
// response verifies under Key with the plain Verify.
//
// Signing takes three exchanges, which is what makes it safe to run
// sessions concurrently: each signer (1) commits to its nonce
// Rᵢ = kᵢ·G, (2) reveals Rᵢ once it holds every commitment, and (3)
// answers zᵢ = kᵢ + c·aᵢ·xᵢ for c = Challenge(ΣRᵢ, msg). A nonce kᵢ
// must be fresh per session and answer at most one challenge: two
// responses under one kᵢ reveal the private key.
type Multisig struct {
	g     Group
	key   Element
	coefs []*big.Int
	terms []Element // aᵢ·Xᵢ
}

// NewMultisig aggregates keys, in the given (canonical) order.
func NewMultisig(g Group, keys []Element) *Multisig {
	enc := make([][]byte, len(keys))
	for i, k := range keys {
		enc[i] = g.Encode(k)
	}
	list := Hash("dissent/multisig-keys", enc...)
	m := &Multisig{
		g:     g,
		key:   g.Identity(),
		coefs: make([]*big.Int, len(keys)),
		terms: make([]Element, len(keys)),
	}
	for i, k := range keys {
		m.coefs[i] = HashToScalar(g, "dissent/multisig-coef", list, enc[i])
		m.terms[i] = g.ScalarMult(k, m.coefs[i])
		m.key = g.Add(m.key, m.terms[i])
	}
	return m
}

// Key returns the aggregate public key X̃.
func (m *Multisig) Key() Element { return m.key }

// Challenge returns the session's Schnorr challenge over msg, given
// every signer's revealed nonce — the same challenge Verify recomputes
// from the combined signature.
func (m *Multisig) Challenge(domain string, nonces []Element, msg []byte) *big.Int {
	r := m.g.Identity()
	for _, n := range nonces {
		r = m.g.Add(r, n)
	}
	return schnorrChallenge(m.g, domain, r, m.key, msg)
}

// Respond returns signer i's partial response zᵢ = k + c·aᵢ·x.
func (m *Multisig) Respond(i int, priv, k, c *big.Int) *big.Int {
	z := new(big.Int).Mul(m.coefs[i], priv)
	z.Mul(z, c)
	z.Add(z, k)
	return z.Mod(z, m.g.Order())
}

// VerifyPartial checks signer i's response against its revealed nonce:
// z·G − c·(aᵢ·Xᵢ) = Rᵢ. It costs what Verify costs, and a failure is
// attributable to signer i alone.
func (m *Multisig) VerifyPartial(i int, nonce Element, c, z *big.Int) error {
	if z == nil || z.Sign() < 0 || z.Cmp(m.g.Order()) >= 0 {
		return errors.New("crypto: partial response out of range")
	}
	if !m.g.Equal(baseMultSub(m.g, z, m.terms[i], c), nonce) {
		return errors.New("crypto: partial response verification failed")
	}
	return nil
}

// Combine sums the partial responses into the collective signature.
func (m *Multisig) Combine(c *big.Int, partials []*big.Int) Signature {
	z := new(big.Int)
	for _, p := range partials {
		z.Add(z, p)
	}
	return Signature{C: c, Z: z.Mod(z, m.g.Order())}
}
