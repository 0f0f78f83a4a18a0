package crypto

import (
	"errors"
	"io"
	"math/big"
)

// Signature is a Schnorr signature (c, z) over the signing group.
// Dissent signs every protocol message with the sender's long-term key
// for integrity and accountability, and signs accusations with
// pseudonym slot keys — which are bare group elements produced by the
// key shuffle, hence Schnorr rather than a fixed-curve ECDSA (§3.3, §3.9).
type Signature struct {
	C *big.Int
	Z *big.Int
}

// SignatureLen returns the encoded signature size for group g.
func SignatureLen(g Group) int { return 2 * ScalarLen(g) }

// ScalarLen returns the size of a fixed-width encoded scalar of g.
func ScalarLen(g Group) int { return (g.Order().BitLen() + 7) / 8 }

// Sign produces a Schnorr signature on msg with the keypair, bound to
// domain for cross-protocol separation.
func (kp *KeyPair) Sign(domain string, msg []byte, rand io.Reader) (Signature, error) {
	if kp.Private == nil {
		return Signature{}, errors.New("crypto: signing requires a private key")
	}
	g := kp.Group
	k, err := g.RandomScalar(rand)
	if err != nil {
		return Signature{}, err
	}
	r := g.BaseMult(k)
	c := schnorrChallenge(g, domain, r, kp.Public, msg)
	z := new(big.Int).Mul(c, kp.Private)
	z.Add(z, k)
	z.Mod(z, g.Order())
	return Signature{C: c, Z: z}, nil
}

// Verify checks a Schnorr signature on msg under public key pub.
func Verify(g Group, pub Element, domain string, msg []byte, sig Signature) error {
	if sig.C == nil || sig.Z == nil {
		return errors.New("crypto: incomplete signature")
	}
	q := g.Order()
	if sig.C.Sign() < 0 || sig.C.Cmp(q) >= 0 || sig.Z.Sign() < 0 || sig.Z.Cmp(q) >= 0 {
		return errors.New("crypto: signature values out of range")
	}
	r := baseMultSub(g, sig.Z, pub, sig.C)
	c := schnorrChallenge(g, domain, r, pub, msg)
	if c.Cmp(sig.C) != 0 {
		return errors.New("crypto: signature verification failed")
	}
	return nil
}

// baseMultSub returns z·G − c·x, the point every Schnorr check
// recomputes: R from a signature, a signer's nonce from its partial
// response.
func baseMultSub(g Group, z *big.Int, x Element, c *big.Int) Element {
	return BaseMultAdd(g, z, x, new(big.Int).Neg(c))
}

func schnorrChallenge(g Group, domain string, r, pub Element, msg []byte) *big.Int {
	return HashToScalar(g, "dissent/schnorr",
		[]byte(domain), g.Encode(r), g.Encode(pub), msg)
}

// EncodeScalar serializes k as one fixed-width scalar.
func EncodeScalar(g Group, k *big.Int) []byte {
	return k.FillBytes(make([]byte, ScalarLen(g)))
}

// DecodeScalar parses a scalar serialized by EncodeScalar.
func DecodeScalar(g Group, data []byte) (*big.Int, error) {
	if len(data) != ScalarLen(g) {
		return nil, errors.New("crypto: bad scalar length")
	}
	return new(big.Int).SetBytes(data), nil
}

// EncodeSignature serializes sig as two fixed-width scalars.
func EncodeSignature(g Group, sig Signature) []byte {
	n := ScalarLen(g)
	buf := make([]byte, 2*n)
	sig.C.FillBytes(buf[:n])
	sig.Z.FillBytes(buf[n:])
	return buf
}

// DecodeSignature parses a signature serialized by EncodeSignature.
func DecodeSignature(g Group, data []byte) (Signature, error) {
	n := ScalarLen(g)
	if len(data) != 2*n {
		return Signature{}, errors.New("crypto: bad signature length")
	}
	return Signature{
		C: new(big.Int).SetBytes(data[:n]),
		Z: new(big.Int).SetBytes(data[n:]),
	}, nil
}
