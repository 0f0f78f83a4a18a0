// Package shuffle implements Dissent's verifiable shuffle (§3.10): a
// serial ElGamal re-encryption/decryption mix over an anytrust server
// set. Each server in turn re-randomizes and permutes the ciphertext
// list, proves in zero knowledge that its output is a re-encrypted
// permutation of its input (a Terelius–Wikström permutation-commitment
// argument, proof.go), and verifiably strips its own decryption layer
// with a batch Chaum–Pedersen proof.
//
// The guarantee: if at least one server is honest, no coalition of the
// others learns the permutation; and a server whose published step is
// not a permutation of its input, re-encrypted under the remaining key
// and stripped with its own key, is rejected by every honest server
// except with probability about 2⁻¹²⁸ over the Fiat–Shamir hashes —
// there is no parameter to set and no cheaper offline search than
// inverting the hash or a discrete logarithm.
//
// The shuffle operates on fixed-width vectors of ciphertexts so that
// multi-element messages (general message shuffles, e.g. accusations)
// travel as units; pseudonym-key shuffles use width 1.
package shuffle

import (
	"crypto/rand"
	"errors"
	"io"
	"math/big"

	"dissent/internal/crypto"
)

// Vec is one shuffle input: a fixed-width vector of ElGamal
// ciphertexts that is permuted as a unit.
type Vec []crypto.Ciphertext

// Errors returned by shuffle verification.
var (
	ErrBadProof  = errors.New("shuffle: proof verification failed")
	ErrBadShares = errors.New("shuffle: decryption share proof failed")
	ErrShape     = errors.New("shuffle: inconsistent input shape")
)

// Permutation returns a uniform permutation of [0,n) using randomness
// from r (crypto/rand if nil).
func Permutation(n int, r io.Reader) ([]int, error) {
	if r == nil {
		r = rand.Reader
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	// Fisher–Yates with rejection-free uniform draws.
	for i := n - 1; i > 0; i-- {
		jBig, err := rand.Int(r, big.NewInt(int64(i+1)))
		if err != nil {
			return nil, err
		}
		j := int(jBig.Int64())
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm, nil
}

// invertPerm returns the inverse permutation.
func invertPerm(p []int) []int {
	inv := make([]int, len(p))
	for i, v := range p {
		inv[v] = i
	}
	return inv
}

// shape returns the common vector width of a non-empty list.
func shape(vs []Vec) (width int, err error) {
	if len(vs) == 0 || len(vs[0]) == 0 {
		return 0, ErrShape
	}
	width = len(vs[0])
	for _, v := range vs {
		if len(v) != width {
			return 0, ErrShape
		}
	}
	return width, nil
}

// randScalars draws n scalars from r on the calling goroutine.
func randScalars(g crypto.Group, n int, r io.Reader) ([]*big.Int, error) {
	ks := make([]*big.Int, n)
	for i := range ks {
		k, err := g.RandomScalar(r)
		if err != nil {
			return nil, err
		}
		ks[i] = k
	}
	return ks, nil
}

// randMatrix draws an n x width matrix of scalars, row by row.
func randMatrix(g crypto.Group, n, width int, r io.Reader) ([][]*big.Int, error) {
	m := make([][]*big.Int, n)
	for i := range m {
		row, err := randScalars(g, width, r)
		if err != nil {
			return nil, err
		}
		m[i] = row
	}
	return m, nil
}

// shuffleOnce applies out[i][k] = in[perm[i]][k] + Enc_y(0; rnd[i][k]).
func shuffleOnce(g crypto.Group, y crypto.Element, in []Vec, perm []int, rnd [][]*big.Int) []Vec {
	out := make([]Vec, len(in))
	crypto.ForChunks(len(in), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			src := in[perm[i]]
			out[i] = make(Vec, len(src))
			for k, ct := range src {
				out[i][k] = crypto.ReencryptWith(g, y, ct, rnd[i][k])
			}
		}
	})
	return out
}

// column returns component k of every vector's C1s and C2s.
func column(vs []Vec, k int) (c1s, c2s []crypto.Element) {
	c1s = make([]crypto.Element, len(vs))
	c2s = make([]crypto.Element, len(vs))
	for i, v := range vs {
		c1s[i], c2s[i] = v[k].C1, v[k].C2
	}
	return c1s, c2s
}
