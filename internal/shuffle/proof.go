package shuffle

import (
	"crypto/sha256"
	"errors"
	"io"
	"math/big"
	"sync"
	"sync/atomic"

	"dissent/internal/crypto"
)

// Proof is a non-interactive zero-knowledge argument that an output
// list is a re-encrypted permutation of an input list under a known
// public key: the Terelius–Wikström proof of a shuffle in the form
// given by Haenni, Locher, Koenig and Dubuis ("Pseudo-Code Algorithms
// for Verifiable Re-Encryption Mix-Nets", FC 2017), widened to vectors
// of w ciphertexts that share one permutation.
//
// In this package's additive notation, with out[i] = in[π(i)] +
// Enc_Y(0; ρ_i) per column and independent generators H, H_0…H_{n−1}:
// C commits to the permutation matrix (C[π(i)] = r_{π(i)}·G + H_i), the
// challenges u_j are hashed from (Y, in, out, C), u'_i = u_{π(i)}, and
// Chain commits to the running products of u' (Chain[i] = r̂_i·G +
// u'_i·Chain[i−1], Chain[−1] = H). The T fields are the announcements
// and the S fields the responses of one Σ-protocol, under the challenge
// χ hashed from everything before it, showing that (1) the columns of
// C sum to a commitment to the all-ones vector, (2) the chain ends at a
// commitment to ∏u_j — together: C commits to a permutation matrix —
// (3) Σu_j·C[j] commits to u', and (4) the same u' take Σu'_i·out[i] to
// a re-encryption of Σu_j·in[j] in every column.
type Proof struct {
	C      []crypto.Element // n: permutation-matrix commitment, by column
	Chain  []crypto.Element // n: ĉ_i
	T1     crypto.Element   // ω_1·G
	T2     crypto.Element   // ω_2·G
	T3     crypto.Element   // ω_3·G + Σω'_i·H_i
	T4     Vec              // w: −Enc_Y(0; ω_4,k) + Σω'_i·out[i][k]
	THat   []crypto.Element // n: ω̂_i·G + ω'_i·Chain[i−1]
	S1     *big.Int         // ω_1 + χ·Σr_j
	S2     *big.Int         // ω_2 + χ·Σ_i r̂_i·∏_{l>i} u'_l
	S3     *big.Int         // ω_3 + χ·Σr_j·u_j
	S4     []*big.Int       // w: ω_4,k + χ·Σ_i ρ_i,k·u'_i
	SHat   []*big.Int       // n: ω̂_i + χ·r̂_i
	SPrime []*big.Int       // n: ω'_i + χ·u'_i
}

// genCache memoises the commitment generators per group name: index 0
// is H, index 1+i is H_i. They are a pure function of (group, index),
// so the memo changes no result; it saves one hash-to-group (a modular
// square root on P-256) per item per proof.
var genCache = struct {
	sync.Mutex
	m map[string][]crypto.Element
}{m: make(map[string][]crypto.Element)}

// generators returns H and H_0…H_{n−1} for g. Each is hashed to the
// group with a counter (crypto.Group.HashToElement), never computed as
// k·G: the commitments bind only while nobody knows a discrete-log
// relation among G, H and the H_i.
func generators(g crypto.Group, n int) (h crypto.Element, hs []crypto.Element) {
	genCache.Lock()
	defer genCache.Unlock()
	gens := genCache.m[g.Name()]
	if have := len(gens); have < n+1 {
		gens = append(gens, make([]crypto.Element, n+1-have)...)
		crypto.ForChunks(n+1-have, func(lo, hi int) {
			for i := have + lo; i < have+hi; i++ {
				gens[i] = g.HashToElement(crypto.Hash("dissent/shuffle-generator", crypto.HashUint64(uint64(i))))
			}
		})
		genCache.m[g.Name()] = gens
	}
	return gens[0], gens[1 : n+1 : n+1]
}

// transcript starts the Fiat–Shamir hash of one proof: the group, the
// key, the shape and every ciphertext of both lists. Elements encode to
// a fixed length, so plain concatenation after the counts is injective.
func transcript(g crypto.Group, y crypto.Element, in, out []Vec) []byte {
	h := sha256.New()
	h.Write(g.Encode(y))
	for _, list := range [][]Vec{in, out} {
		for _, v := range list {
			for _, ct := range v {
				h.Write(g.Encode(ct.C1))
				h.Write(g.Encode(ct.C2))
			}
		}
	}
	return crypto.Hash("dissent/shuffle-statement", []byte(g.Name()),
		crypto.HashUint64(uint64(len(in))), crypto.HashUint64(uint64(len(in[0]))), h.Sum(nil))
}

// challengeSeed binds the statement and the permutation commitment; the
// n 128-bit challenges u_j are expanded from it. 128 bits suffice: the
// u_j only feed Schwartz–Zippel tests (is u' a permutation of u, is the
// weighted sum of columns consistent), whose error is a few times
// n/2¹²⁸, not a discrete-log search.
func challengeSeed(g crypto.Group, statement []byte, c []crypto.Element) []byte {
	return crypto.Hash("dissent/shuffle-challenge", statement, encodeElements(g, c))
}

func challengeVector(seed []byte, n int) []*big.Int {
	return crypto.ChallengeVector("dissent/shuffle-u", seed, n)
}

// sigmaChallenge is χ: 256 bits over the challenge seed (hence the
// statement and C), the chain and every announcement.
func sigmaChallenge(g crypto.Group, seed []byte, p *Proof) *big.Int {
	t4 := make([]crypto.Element, 0, 2*len(p.T4))
	for _, ct := range p.T4 {
		t4 = append(t4, ct.C1, ct.C2)
	}
	chi := new(big.Int).SetBytes(crypto.Hash("dissent/shuffle-sigma", seed,
		encodeElements(g, p.Chain), encodeElements(g, []crypto.Element{p.T1, p.T2, p.T3}),
		encodeElements(g, t4), encodeElements(g, p.THat)))
	return chi.Mod(chi, g.Order())
}

func encodeElements(g crypto.Group, es []crypto.Element) []byte {
	buf := make([]byte, 0, len(es)*g.ElementLen())
	for _, e := range es {
		buf = append(buf, g.Encode(e)...)
	}
	return buf
}

// witness is everything secret a prover draws for one shuffle: the
// permutation, the re-encryption randomness ρ and the proof's
// commitment randomness (r, r̂) and Σ-protocol nonces (ω).
type witness struct {
	perm           []int
	rho            [][]*big.Int // n x w
	rs, rHat       []*big.Int   // n each
	om             []*big.Int   // ω_1, ω_2, ω_3
	om4            []*big.Int   // w
	omHat, omPrime []*big.Int   // n each
}

// drawWitness reads a whole witness from r on the calling goroutine,
// the permutation first and the re-encryption matrix second, so a
// seeded reader replays bit-for-bit however many processors the
// per-item work is then spread over.
func drawWitness(g crypto.Group, n, w int, r io.Reader) (*witness, error) {
	perm, err := Permutation(n, r)
	if err != nil {
		return nil, err
	}
	rho, err := randMatrix(g, n, w, r)
	if err != nil {
		return nil, err
	}
	secrets, err := randScalars(g, 4*n+3+w, r)
	if err != nil {
		return nil, err
	}
	take := func(k int) []*big.Int {
		head := secrets[:k]
		secrets = secrets[k:]
		return head
	}
	return &witness{perm: perm, rho: rho, rs: take(n), rHat: take(n), om: take(3),
		om4: take(w), omHat: take(n), omPrime: take(n)}, nil
}

// Prove shuffles in under key y and returns the output list, the
// permutation used (out[i] re-encrypts in[perm[i]]) and the proof.
func Prove(g crypto.Group, y crypto.Element, in []Vec, r io.Reader) (out []Vec, perm []int, proof *Proof, err error) {
	if len(in) == 0 {
		return nil, nil, nil, errors.New("shuffle: empty input")
	}
	w, err := shape(in)
	if err != nil {
		return nil, nil, nil, err
	}
	wit, err := drawWitness(g, len(in), w, r)
	if err != nil {
		return nil, nil, nil, err
	}
	out = shuffleOnce(g, y, in, wit.perm, wit.rho)
	return out, wit.perm, wit.prove(g, y, in, out), nil
}

// prove builds the proof that out = shuffleOnce(in, perm, rho).
func (wit *witness) prove(g crypto.Group, y crypto.Element, in, out []Vec) *Proof {
	n, w, q := len(in), len(in[0]), g.Order()
	perm, omPrime := wit.perm, wit.omPrime
	h, hs := generators(g, n)

	proof := &Proof{C: make([]crypto.Element, n), Chain: make([]crypto.Element, n), THat: make([]crypto.Element, n)}
	inv := invertPerm(perm)
	crypto.ForChunks(n, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			proof.C[j] = g.Add(g.BaseMult(wit.rs[j]), hs[inv[j]])
		}
	})

	seed := challengeSeed(g, transcript(g, y, in, out), proof.C)
	u := challengeVector(seed, n)
	uPrime := make([]*big.Int, n)
	for i := range uPrime {
		uPrime[i] = u[perm[i]]
	}

	// Chain[i] = R_i·G + U_i·H with R_i = r̂_i + u'_i·R_{i−1} and U_i =
	// u'_i·U_{i−1}: two scalar recurrences, then n independent two-base
	// multiplications rather than a chain of n dependent ones.
	bigR, bigU := make([]*big.Int, n), make([]*big.Int, n)
	prevR, prevU := new(big.Int), big.NewInt(1)
	for i := 0; i < n; i++ {
		bigR[i] = mulAdd(wit.rHat[i], uPrime[i], prevR, q)
		bigU[i] = mulAdd(new(big.Int), uPrime[i], prevU, q)
		prevR, prevU = bigR[i], bigU[i]
	}
	crypto.ForChunks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			proof.Chain[i] = crypto.BaseMultAdd(g, bigR[i], h, bigU[i])
		}
	})
	crypto.ForChunks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			proof.THat[i] = crypto.BaseMultAdd(g, wit.omHat[i], proof.link(h, i), omPrime[i])
		}
	})

	proof.T1, proof.T2 = g.BaseMult(wit.om[0]), g.BaseMult(wit.om[1])
	proof.T3 = g.Add(g.BaseMult(wit.om[2]), crypto.MultiScalarMult(g, hs, omPrime))
	proof.T4 = make(Vec, w)
	for k := range proof.T4 {
		c1s, c2s := column(out, k)
		neg := new(big.Int).Sub(q, wit.om4[k])
		proof.T4[k] = crypto.Ciphertext{
			C1: g.Add(g.BaseMult(neg), crypto.MultiScalarMult(g, c1s, omPrime)),
			C2: g.Add(g.ScalarMult(y, neg), crypto.MultiScalarMult(g, c2s, omPrime)),
		}
	}

	chi := sigmaChallenge(g, seed, proof)
	sumR, sumRU := new(big.Int), new(big.Int)
	for j := 0; j < n; j++ {
		sumR.Add(sumR, wit.rs[j])
		sumRU.Add(sumRU, new(big.Int).Mul(wit.rs[j], u[j]))
	}
	proof.S1 = mulAdd(wit.om[0], chi, sumR, q)
	proof.S2 = mulAdd(wit.om[1], chi, bigR[n-1], q)
	proof.S3 = mulAdd(wit.om[2], chi, sumRU, q)
	proof.S4 = make([]*big.Int, w)
	for k := range proof.S4 {
		sum := new(big.Int)
		for i := 0; i < n; i++ {
			sum.Add(sum, new(big.Int).Mul(wit.rho[i][k], uPrime[i]))
		}
		proof.S4[k] = mulAdd(wit.om4[k], chi, sum, q)
	}
	proof.SHat, proof.SPrime = make([]*big.Int, n), make([]*big.Int, n)
	for i := 0; i < n; i++ {
		proof.SHat[i] = mulAdd(wit.omHat[i], chi, wit.rHat[i], q)
		proof.SPrime[i] = mulAdd(omPrime[i], chi, uPrime[i], q)
	}
	return proof
}

// link returns Chain[i−1], the chain's predecessor of link i; the chain
// starts at H.
func (p *Proof) link(h crypto.Element, i int) crypto.Element {
	if i == 0 {
		return h
	}
	return p.Chain[i-1]
}

// mulAdd returns a + b·c mod q.
func mulAdd(a, b, c, q *big.Int) *big.Int {
	v := new(big.Int).Mul(b, c)
	v.Add(v, a)
	return v.Mod(v, q)
}

// checkShape rejects a proof whose lengths do not match an n x w
// shuffle, or that holds a missing element or a scalar outside [0, q).
func (p *Proof) checkShape(n, w int, q *big.Int) bool {
	if p == nil || len(p.C) != n || len(p.Chain) != n || len(p.THat) != n ||
		len(p.T4) != w || len(p.S4) != w || len(p.SHat) != n || len(p.SPrime) != n {
		return false
	}
	elems, scalars := p.slots()
	for _, e := range elems {
		if *e == nil {
			return false
		}
	}
	for _, s := range scalars {
		if *s == nil || (*s).Sign() < 0 || (*s).Cmp(q) >= 0 {
			return false
		}
	}
	return true
}

// Verify checks that out is a re-encrypted permutation of in under key
// y according to proof. Every element is assumed to be a group member
// (crypto.Group.Decode checks membership on the way in).
func Verify(g crypto.Group, y crypto.Element, in, out []Vec, proof *Proof) error {
	n := len(in)
	w, err := shape(in)
	if err != nil {
		return err
	}
	if wOut, err := shape(out); err != nil || len(out) != n || wOut != w {
		return ErrShape
	}
	q := g.Order()
	if !proof.checkShape(n, w, q) {
		return ErrBadProof
	}
	h, hs := generators(g, n)
	seed := challengeSeed(g, transcript(g, y, in, out), proof.C)
	u := challengeVector(seed, n)
	chi := sigmaChallenge(g, seed, proof)

	// ok reports t + χ·x == rhs, the form of every check below: χ stays a
	// short positive scalar instead of a full-width −χ.
	ok := func(t, x, rhs crypto.Element) bool {
		return g.Equal(g.Add(t, g.ScalarMult(x, chi)), rhs)
	}

	// (1) c̄ = ΣC[j] − ΣH_i commits to zero under s_1.
	sumC, sumH := g.Identity(), g.Identity()
	for j := 0; j < n; j++ {
		sumC, sumH = g.Add(sumC, proof.C[j]), g.Add(sumH, hs[j])
	}
	cBar := g.Add(sumC, g.Neg(sumH))
	if !ok(proof.T1, cBar, g.BaseMult(proof.S1)) {
		return ErrBadProof
	}
	// (2) ĉ = Chain[n−1] − (∏u_j)·H commits to zero under s_2.
	prodU := big.NewInt(1)
	for _, uj := range u {
		prodU.Mul(prodU, uj).Mod(prodU, q)
	}
	cHat := g.Add(proof.Chain[n-1], g.Neg(g.ScalarMult(h, prodU)))
	if !ok(proof.T2, cHat, g.BaseMult(proof.S2)) {
		return ErrBadProof
	}
	// (3) c̃ = Σu_j·C[j] commits to the vector s' answers for.
	cTilde := crypto.MultiScalarMult(g, proof.C, u)
	if !ok(proof.T3, cTilde, g.Add(g.BaseMult(proof.S3), crypto.MultiScalarMult(g, hs, proof.SPrime))) {
		return ErrBadProof
	}
	// (4) per column, Σu'_i·out[i] re-encrypts (A, B) = Σu_j·in[j].
	for k := 0; k < w; k++ {
		in1, in2 := column(in, k)
		out1, out2 := column(out, k)
		a, b := crypto.MultiScalarMult(g, in1, u), crypto.MultiScalarMult(g, in2, u)
		lhs1 := g.Add(proof.T4[k].C1, g.BaseMult(proof.S4[k]))
		lhs2 := g.Add(proof.T4[k].C2, g.ScalarMult(y, proof.S4[k]))
		if !ok(lhs1, a, crypto.MultiScalarMult(g, out1, proof.SPrime)) ||
			!ok(lhs2, b, crypto.MultiScalarMult(g, out2, proof.SPrime)) {
			return ErrBadProof
		}
	}
	// (5) every chain link: THat[i] + χ·Chain[i] = ŝ_i·G + s'_i·Chain[i−1].
	var broken atomic.Bool
	crypto.ForChunks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if !ok(proof.THat[i], proof.Chain[i], crypto.BaseMultAdd(g, proof.SHat[i], proof.link(h, i), proof.SPrime[i])) {
				broken.Store(true)
				return
			}
		}
	})
	if broken.Load() {
		return ErrBadProof
	}
	return nil
}
