package crypto

import (
	"fmt"
	"io"
	"math/big"
)

// modpElement is an element of the quadratic-residue subgroup of Z_p*.
type modpElement struct {
	v *big.Int
}

func (e *modpElement) String() string {
	b := e.v.Bytes()
	if len(b) > 4 {
		b = b[:4]
	}
	return fmt.Sprintf("ModP(%x…)", b)
}

// ModPGroup is a Schnorr group: the order-q subgroup of quadratic
// residues modulo a safe prime p = 2q+1. Dissent's general message
// shuffles run in this group because arbitrary byte strings embed
// cheaply into residues, at the cost of much more expensive arithmetic
// than P-256 — the asymmetry behind Figure 9's key-vs-accusation
// shuffle gap (§3.10).
type ModPGroup struct {
	name string
	p    *big.Int // safe prime
	q    *big.Int // (p-1)/2, prime
	g    *modpElement
}

// rfc3526Group2048 is the 2048-bit MODP group from RFC 3526 §3.
const rfc3526Group2048 = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1" +
	"29024E088A67CC74020BBEA63B139B22514A08798E3404DD" +
	"EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245" +
	"E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED" +
	"EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D" +
	"C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F" +
	"83655D23DCA3AD961C62F356208552BB9ED529077096966D" +
	"670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B" +
	"E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9" +
	"DE2BCBF6955817183995497CEA956AE515D2261898FA0510" +
	"15728E5A8AACAA68FFFFFFFFFFFFFFFF"

// ModP2048 returns the RFC 3526 2048-bit Schnorr group with generator 4
// (= 2², guaranteed to be a quadratic residue).
func ModP2048() *ModPGroup {
	p, ok := new(big.Int).SetString(rfc3526Group2048, 16)
	if !ok {
		panic("crypto: bad RFC 3526 prime constant")
	}
	q := new(big.Int).Rsh(new(big.Int).Sub(p, big.NewInt(1)), 1)
	return &ModPGroup{
		name: "modp-2048",
		p:    p,
		q:    q,
		g:    &modpElement{v: big.NewInt(4)},
	}
}

// ModP512Test returns a small Schnorr group over a 512-bit safe prime.
// It exists so tests and fast simulations can exercise mod-p code paths
// cheaply; it offers no meaningful security margin and must never be
// used in production deployments.
func ModP512Test() *ModPGroup {
	// 512-bit safe prime p (with (p-1)/2 prime), generated offline.
	const hexP = "CE7ECE926E1F1FB51BCAD765F55457B45A362FBAB50111886FE1787A51B783B1" +
		"9A7829D5BA875D1C4F8F2EFB535F67020329BB58AF13C531251BC2B8EA7EF81F"
	p, ok := new(big.Int).SetString(hexP, 16)
	if !ok {
		panic("crypto: bad test prime constant")
	}
	q := new(big.Int).Rsh(new(big.Int).Sub(p, big.NewInt(1)), 1)
	return &ModPGroup{name: "modp-512-test", p: p, q: q, g: &modpElement{v: big.NewInt(4)}}
}

// GroupByName resolves a group registered under Name(). Group
// definitions record the message-shuffle group by name.
func GroupByName(name string) (Group, error) {
	switch name {
	case "P-256":
		return P256(), nil
	case "modp-2048":
		return ModP2048(), nil
	case "modp-512-test":
		return ModP512Test(), nil
	default:
		return nil, fmt.Errorf("crypto: unknown group %q", name)
	}
}

// Name implements Group.
func (g *ModPGroup) Name() string { return g.name }

// Order implements Group.
func (g *ModPGroup) Order() *big.Int { return new(big.Int).Set(g.q) }

// Generator implements Group.
func (g *ModPGroup) Generator() Element { return g.g }

// Identity implements Group.
func (g *ModPGroup) Identity() Element { return &modpElement{v: big.NewInt(1)} }

// Add implements Group (multiplication mod p in this notation).
func (g *ModPGroup) Add(a, b Element) Element {
	va, vb := a.(*modpElement).v, b.(*modpElement).v
	v := new(big.Int).Mul(va, vb)
	v.Mod(v, g.p)
	return &modpElement{v: v}
}

// Neg implements Group (modular inverse).
func (g *ModPGroup) Neg(a Element) Element {
	v := new(big.Int).ModInverse(a.(*modpElement).v, g.p)
	return &modpElement{v: v}
}

// ScalarMult implements Group (modular exponentiation).
func (g *ModPGroup) ScalarMult(a Element, k *big.Int) Element {
	kk := new(big.Int).Mod(k, g.q)
	v := new(big.Int).Exp(a.(*modpElement).v, kk, g.p)
	return &modpElement{v: v}
}

// BaseMult implements Group.
func (g *ModPGroup) BaseMult(k *big.Int) Element { return g.ScalarMult(g.g, k) }

// Equal implements Group.
func (g *ModPGroup) Equal(a, b Element) bool {
	return a.(*modpElement).v.Cmp(b.(*modpElement).v) == 0
}

// IsIdentity implements Group.
func (g *ModPGroup) IsIdentity(a Element) bool {
	return a.(*modpElement).v.Cmp(big.NewInt(1)) == 0
}

// ElementLen implements Group.
func (g *ModPGroup) ElementLen() int { return (g.p.BitLen() + 7) / 8 }

// Encode implements Group.
func (g *ModPGroup) Encode(a Element) []byte {
	buf := make([]byte, g.ElementLen())
	a.(*modpElement).v.FillBytes(buf)
	return buf
}

// Decode implements Group. Membership in the QR subgroup is verified
// (one Jacobi symbol); shuffle verifiers rely on this check.
func (g *ModPGroup) Decode(data []byte) (Element, error) {
	if len(data) != g.ElementLen() {
		return nil, ErrBadElement
	}
	v := new(big.Int).SetBytes(data)
	if v.Sign() <= 0 || v.Cmp(g.p) >= 0 {
		return nil, ErrBadElement
	}
	if !g.isResidue(v) {
		return nil, ErrBadElement
	}
	return &modpElement{v: v}, nil
}

// isResidue reports whether v is a nonzero quadratic residue mod p.
// For a prime modulus the Jacobi symbol is the Legendre symbol, i.e.
// Euler's criterion v^q mod p == 1, at a small fraction of the cost of
// that exponentiation.
func (g *ModPGroup) isResidue(v *big.Int) bool {
	return big.Jacobi(v, g.p) == 1
}

// RandomScalar implements Group.
func (g *ModPGroup) RandomScalar(r io.Reader) (*big.Int, error) {
	return randScalar(r, g.q)
}

// RandomElement implements Group.
func (g *ModPGroup) RandomElement(r io.Reader) (Element, error) {
	k, err := g.RandomScalar(r)
	if err != nil {
		return nil, err
	}
	return g.BaseMult(k), nil
}

// HashToElement implements Group: the expanded hash is reduced mod p
// and squared, which lands in the residue subgroup with no known
// logarithm; the counter only steps past 0 and the identity.
func (g *ModPGroup) HashToElement(seed []byte) Element {
	for ctr := uint64(0); ; ctr++ {
		h := Hash("dissent/hash-to-element", []byte(g.name), seed, HashUint64(ctr))
		v := new(big.Int).SetBytes(expandHash(h, g.ElementLen()+16))
		v.Mod(v, g.p)
		v.Mul(v, v).Mod(v, g.p)
		if v.Cmp(big.NewInt(1)) > 0 {
			return &modpElement{v: v}
		}
	}
}

// EmbedLimit implements Group: two header bytes (counter, length) and
// one zero byte of headroom are reserved, and we keep the value well
// under p by leaving the top 16 bytes clear.
func (g *ModPGroup) EmbedLimit() int { return g.ElementLen() - 19 }

// Embed implements Group. Candidates are tested for quadratic
// residuosity (two attempts expected), bumping a counter until one
// lands in the subgroup.
func (g *ModPGroup) Embed(msg []byte, r io.Reader) (Element, error) {
	if len(msg) > g.EmbedLimit() {
		return nil, ErrEmbedTooLong
	}
	buf := make([]byte, g.ElementLen())
	// Layout: [16 zero bytes][counter][length][payload][zero pad].
	buf[17] = byte(len(msg))
	copy(buf[18:], msg)
	for ctr := 0; ctr < 256; ctr++ {
		buf[16] = byte(ctr)
		v := new(big.Int).SetBytes(buf)
		if v.Sign() > 0 && g.isResidue(v) {
			return &modpElement{v: v}, nil
		}
	}
	return nil, fmt.Errorf("crypto: modp embedding failed after 256 attempts")
}

// Extract implements Group.
func (g *ModPGroup) Extract(a Element) ([]byte, error) {
	buf := make([]byte, g.ElementLen())
	a.(*modpElement).v.FillBytes(buf)
	for i := 0; i < 16; i++ {
		if buf[i] != 0 {
			return nil, ErrNotEmbedded
		}
	}
	n := int(buf[17])
	if n > g.EmbedLimit() {
		return nil, ErrNotEmbedded
	}
	return append([]byte(nil), buf[18:18+n]...), nil
}
