package crypto

import (
	"crypto/sha256"
	"errors"
	"io"
	"math/big"
)

// DLEQProof is a Chaum–Pedersen non-interactive proof that
// log_G(Y) == log_B(D): the prover knows x with Y = xG and D = xB.
// Dissent uses these to make shuffle decryption verifiable (a server
// proves its decryption share D = x*C1 matches its public key) and in
// accusation rebuttals (a client proves the revealed DH secret
// K = x*S matches its public key) (§3.9–3.10).
type DLEQProof struct {
	C *big.Int // Fiat–Shamir challenge
	Z *big.Int // response
}

// ProveDLEQ proves log_G(y) == log_b(d) with witness x, binding the
// proof to ctx. rand may be nil for crypto/rand.
func ProveDLEQ(g Group, x *big.Int, b, y, d Element, ctx []byte, rand io.Reader) (DLEQProof, error) {
	w, err := g.RandomScalar(rand)
	if err != nil {
		return DLEQProof{}, err
	}
	a1 := g.BaseMult(w)
	a2 := g.ScalarMult(b, w)
	c := dleqChallenge(g, b, y, d, a1, a2, ctx)
	// z = w + c*x mod q
	z := new(big.Int).Mul(c, x)
	z.Add(z, w)
	z.Mod(z, g.Order())
	return DLEQProof{C: c, Z: z}, nil
}

// VerifyDLEQ checks a proof that log_G(y) == log_b(d) under context ctx.
func VerifyDLEQ(g Group, b, y, d Element, proof DLEQProof, ctx []byte) error {
	if proof.C == nil || proof.Z == nil {
		return errors.New("crypto: incomplete DLEQ proof")
	}
	q := g.Order()
	if proof.C.Sign() < 0 || proof.C.Cmp(q) >= 0 || proof.Z.Sign() < 0 || proof.Z.Cmp(q) >= 0 {
		return errors.New("crypto: DLEQ proof values out of range")
	}
	// a1 = zG - cY ; a2 = zB - cD
	a1 := g.Add(g.BaseMult(proof.Z), g.Neg(g.ScalarMult(y, proof.C)))
	a2 := g.Add(g.ScalarMult(b, proof.Z), g.Neg(g.ScalarMult(d, proof.C)))
	c := dleqChallenge(g, b, y, d, a1, a2, ctx)
	if c.Cmp(proof.C) != 0 {
		return errors.New("crypto: DLEQ proof verification failed")
	}
	return nil
}

func dleqChallenge(g Group, b, y, d, a1, a2 Element, ctx []byte) *big.Int {
	return HashToScalar(g, "dissent/dleq",
		g.Encode(g.Generator()), g.Encode(b), g.Encode(y), g.Encode(d),
		g.Encode(a1), g.Encode(a2), ctx)
}

// ProveDLEQBatch proves log_G(y) == log_{b_i}(d_i) for every i with a
// single proof, by taking a Fiat–Shamir random linear combination of
// the statement pairs. Shuffle servers use this to prove an entire
// batch of decryption shares at once. The prover, whose d_i = x·b_i,
// gets the combined share as x·(Σρ_i b_i) rather than a second sum.
func ProveDLEQBatch(g Group, x *big.Int, bs, ds []Element, y Element, ctx []byte, rand io.Reader) (DLEQProof, error) {
	if len(bs) != len(ds) {
		return DLEQProof{}, errors.New("crypto: batch length mismatch")
	}
	bc := MultiScalarMult(g, bs, dleqBatchWeights(g, bs, ds, y, ctx))
	return ProveDLEQ(g, x, bc, y, g.ScalarMult(bc, x), ctx, rand)
}

// VerifyDLEQBatch verifies a batch proof from ProveDLEQBatch.
func VerifyDLEQBatch(g Group, bs, ds []Element, y Element, proof DLEQProof, ctx []byte) error {
	if len(bs) != len(ds) {
		return errors.New("crypto: batch length mismatch")
	}
	rhos := dleqBatchWeights(g, bs, ds, y, ctx)
	return VerifyDLEQ(g, MultiScalarMult(g, bs, rhos), y, MultiScalarMult(g, ds, rhos), proof, ctx)
}

// dleqBatchWeights derives the deterministic 128-bit weights ρ_i of the
// combination (Σρ_i b_i, Σρ_i d_i) from the full statement, hashing
// each element once. Short weights are the small-exponent batch test:
// in a prime-order group a false pair survives the combination with
// probability 2⁻¹²⁸, the same bound full-width weights give, at a
// fraction of the exponent length.
func dleqBatchWeights(g Group, bs, ds []Element, y Element, ctx []byte) []*big.Int {
	h := sha256.New()
	h.Write(g.Encode(y))
	for i := range bs {
		h.Write(g.Encode(bs[i]))
		h.Write(g.Encode(ds[i]))
	}
	seed := Hash("dissent/dleq-batch", ctx, h.Sum(nil))
	return ChallengeVector("dissent/dleq-batch-rho", seed, len(bs))
}

// ChallengeVector expands seed into n independent 128-bit scalars, the
// short Fiat–Shamir weights of a batch test.
func ChallengeVector(domain string, seed []byte, n int) []*big.Int {
	out := make([]*big.Int, n)
	for i := range out {
		out[i] = new(big.Int).SetBytes(Hash(domain, seed, HashUint64(uint64(i)))[:16])
	}
	return out
}
