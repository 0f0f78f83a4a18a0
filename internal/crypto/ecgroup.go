package crypto

import (
	"crypto/elliptic"
	"fmt"
	"io"
	"math/big"
)

// ecPoint is an element of an elliptic-curve group. The identity
// (point at infinity) is represented by x == nil.
type ecPoint struct {
	x, y *big.Int
}

func (p *ecPoint) String() string {
	if p.x == nil {
		return "EC(∞)"
	}
	return fmt.Sprintf("EC(%x…)", p.x.Bytes()[:4])
}

// ECGroup wraps a crypto/elliptic curve as a Group. Dissent uses P-256:
// the curve's prime order makes every non-identity point a generator,
// and the stdlib carries constant-time assembly for it.
type ECGroup struct {
	curve elliptic.Curve
	// combined is the curve's one-call a·G + b·P, which elliptic.Curve
	// itself does not include.
	combined combinedMult
	name     string
	gen      *ecPoint
}

// combinedMult is the optional interface the standard library's NIST
// curves implement beside elliptic.Curve (the one crypto/ecdsa
// verified with): x, y = baseScalar·G + scalar·(bigX, bigY).
type combinedMult interface {
	CombinedMult(bigX, bigY *big.Int, baseScalar, scalar []byte) (x, y *big.Int)
}

// P256 returns the NIST P-256 group used for pseudonym-key shuffles,
// node identities, signatures, and pairwise DH secrets.
func P256() *ECGroup {
	c := elliptic.P256()
	return &ECGroup{
		curve:    c,
		combined: c.(combinedMult), // a curve without it fails here, not on a slower path
		name:     "P-256",
		gen:      &ecPoint{x: c.Params().Gx, y: c.Params().Gy},
	}
}

// Name implements Group.
func (g *ECGroup) Name() string { return g.name }

// Order implements Group.
func (g *ECGroup) Order() *big.Int { return new(big.Int).Set(g.curve.Params().N) }

// Generator implements Group.
func (g *ECGroup) Generator() Element { return g.gen }

// Identity implements Group.
func (g *ECGroup) Identity() Element { return &ecPoint{} }

// Add implements Group.
func (g *ECGroup) Add(a, b Element) Element {
	pa, pb := a.(*ecPoint), b.(*ecPoint)
	if pa.x == nil {
		return pb
	}
	if pb.x == nil {
		return pa
	}
	return affinePoint(g.curve.Add(pa.x, pa.y, pb.x, pb.y))
}

// affinePoint wraps a crypto/elliptic result, which reports the point
// at infinity as (0, 0).
func affinePoint(x, y *big.Int) *ecPoint {
	if x.Sign() == 0 && y.Sign() == 0 {
		return &ecPoint{}
	}
	return &ecPoint{x: x, y: y}
}

// Neg implements Group.
func (g *ECGroup) Neg(a Element) Element {
	pa := a.(*ecPoint)
	if pa.x == nil {
		return pa
	}
	ny := new(big.Int).Sub(g.curve.Params().P, pa.y)
	ny.Mod(ny, g.curve.Params().P)
	return &ecPoint{x: new(big.Int).Set(pa.x), y: ny}
}

// ScalarMult implements Group.
func (g *ECGroup) ScalarMult(a Element, k *big.Int) Element {
	pa := a.(*ecPoint)
	kk := new(big.Int).Mod(k, g.curve.Params().N)
	if pa.x == nil || kk.Sign() == 0 {
		return &ecPoint{}
	}
	return affinePoint(g.curve.ScalarMult(pa.x, pa.y, kk.Bytes()))
}

// BaseMult implements Group.
func (g *ECGroup) BaseMult(k *big.Int) Element {
	kk := new(big.Int).Mod(k, g.curve.Params().N)
	if kk.Sign() == 0 {
		return &ecPoint{}
	}
	x, y := g.curve.ScalarBaseMult(kk.Bytes())
	return &ecPoint{x: x, y: y}
}

// BaseMultAdd returns k·G + l·a in one combined multiplication: one
// conversion out of the curve's internal coordinates instead of the
// three that BaseMult, ScalarMult and Add pay separately.
func (g *ECGroup) BaseMultAdd(k *big.Int, a Element, l *big.Int) Element {
	pa := a.(*ecPoint)
	n := g.curve.Params().N
	kk, ll := new(big.Int).Mod(k, n), new(big.Int).Mod(l, n)
	if pa.x == nil || ll.Sign() == 0 {
		return g.BaseMult(kk)
	}
	return affinePoint(g.combined.CombinedMult(pa.x, pa.y, kk.Bytes(), ll.Bytes()))
}

// Equal implements Group.
func (g *ECGroup) Equal(a, b Element) bool {
	pa, pb := a.(*ecPoint), b.(*ecPoint)
	if pa.x == nil || pb.x == nil {
		return pa.x == nil && pb.x == nil
	}
	return pa.x.Cmp(pb.x) == 0 && pa.y.Cmp(pb.y) == 0
}

// IsIdentity implements Group.
func (g *ECGroup) IsIdentity(a Element) bool { return a.(*ecPoint).x == nil }

// ElementLen implements Group: compressed point encoding.
func (g *ECGroup) ElementLen() int { return 1 + (g.curve.Params().BitSize+7)/8 }

// Encode implements Group. The identity encodes as all zero bytes.
func (g *ECGroup) Encode(a Element) []byte {
	pa := a.(*ecPoint)
	if pa.x == nil {
		return make([]byte, g.ElementLen())
	}
	return elliptic.MarshalCompressed(g.curve, pa.x, pa.y)
}

// Decode implements Group.
func (g *ECGroup) Decode(data []byte) (Element, error) {
	if len(data) != g.ElementLen() {
		return nil, ErrBadElement
	}
	allZero := true
	for _, b := range data {
		if b != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		return &ecPoint{}, nil
	}
	x, y := elliptic.UnmarshalCompressed(g.curve, data)
	if x == nil {
		return nil, ErrBadElement
	}
	return &ecPoint{x: x, y: y}, nil
}

// RandomScalar implements Group.
func (g *ECGroup) RandomScalar(r io.Reader) (*big.Int, error) {
	return randScalar(r, g.curve.Params().N)
}

// RandomElement implements Group.
func (g *ECGroup) RandomElement(r io.Reader) (Element, error) {
	k, err := g.RandomScalar(r)
	if err != nil {
		return nil, err
	}
	return g.BaseMult(k), nil
}

// HashToElement implements Group by try-and-increment: a hashed
// x-coordinate is bumped through a counter until it is on the curve
// (~2 attempts expected; the cofactor is 1, so every curve point is in
// the group), and the even y is taken so the result does not depend on
// which root ModSqrt happens to return.
func (g *ECGroup) HashToElement(seed []byte) Element {
	p := g.curve.Params().P
	fieldLen := (g.curve.Params().BitSize + 7) / 8
	for ctr := uint64(0); ; ctr++ {
		h := Hash("dissent/hash-to-element", []byte(g.name), seed, HashUint64(ctr))
		x := new(big.Int).SetBytes(expandHash(h, fieldLen)[:fieldLen])
		if y := ecSolveY(g.curve, x); y != nil {
			if y.Bit(0) == 1 {
				y.Sub(p, y)
			}
			return &ecPoint{x: x, y: y}
		}
	}
}

// EmbedLimit implements Group. The x-coordinate layout is
// [1-byte counter][1-byte length][payload][zero padding], so the field
// width minus two bytes of header minus one byte of headroom (so the
// integer stays below the field prime) is available.
func (g *ECGroup) EmbedLimit() int { return (g.curve.Params().BitSize+7)/8 - 3 }

// Embed implements Group using try-and-increment: candidate
// x-coordinates are tested for curve membership, bumping a counter byte
// until one works (~2 attempts expected).
func (g *ECGroup) Embed(msg []byte, r io.Reader) (Element, error) {
	if len(msg) > g.EmbedLimit() {
		return nil, ErrEmbedTooLong
	}
	fieldLen := (g.curve.Params().BitSize + 7) / 8
	buf := make([]byte, fieldLen)
	// buf[0] stays zero (headroom below the prime), buf[1] is the
	// counter, buf[2] the length, then the payload.
	buf[2] = byte(len(msg))
	copy(buf[3:], msg)
	for ctr := 0; ctr < 256; ctr++ {
		buf[1] = byte(ctr)
		x := new(big.Int).SetBytes(buf)
		if y := ecSolveY(g.curve, x); y != nil {
			return &ecPoint{x: x, y: y}, nil
		}
	}
	return nil, fmt.Errorf("crypto: embedding failed after 256 attempts")
}

// Extract implements Group.
func (g *ECGroup) Extract(a Element) ([]byte, error) {
	pa := a.(*ecPoint)
	if pa.x == nil {
		return nil, ErrNotEmbedded
	}
	fieldLen := (g.curve.Params().BitSize + 7) / 8
	buf := make([]byte, fieldLen)
	pa.x.FillBytes(buf)
	if buf[0] != 0 {
		return nil, ErrNotEmbedded
	}
	n := int(buf[2])
	if n > g.EmbedLimit() {
		return nil, ErrNotEmbedded
	}
	return append([]byte(nil), buf[3:3+n]...), nil
}

// ecSolveY returns a y with y² = x³ - 3x + b (mod p) if one exists.
func ecSolveY(curve elliptic.Curve, x *big.Int) *big.Int {
	p := curve.Params().P
	if x.Cmp(p) >= 0 {
		return nil
	}
	// rhs = x³ - 3x + b mod p
	rhs := new(big.Int).Mul(x, x)
	rhs.Mod(rhs, p)
	rhs.Mul(rhs, x)
	rhs.Mod(rhs, p)
	threeX := new(big.Int).Lsh(x, 1)
	threeX.Add(threeX, x)
	rhs.Sub(rhs, threeX)
	rhs.Add(rhs, curve.Params().B)
	rhs.Mod(rhs, p)
	y := new(big.Int).ModSqrt(rhs, p)
	if y == nil {
		return nil
	}
	if !curve.IsOnCurve(x, y) {
		return nil
	}
	return y
}
