package crypto

import (
	"crypto/sha256"
	"encoding/binary"
	"math/big"
)

// Hash computes a domain-separated SHA-256 over a sequence of byte
// strings. Each part is length-prefixed so the encoding is injective.
func Hash(domain string, parts ...[]byte) []byte {
	h := sha256.New()
	var lenBuf [8]byte
	binary.BigEndian.PutUint64(lenBuf[:], uint64(len(domain)))
	h.Write(lenBuf[:])
	h.Write([]byte(domain))
	for _, p := range parts {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write(p)
	}
	return h.Sum(nil)
}

// HashToScalar hashes the given parts into a scalar modulo the group
// order, used for Fiat–Shamir challenges. A counter extends the digest
// so the result is statistically close to uniform even when the order
// is slightly below a power of two.
func HashToScalar(g Group, domain string, parts ...[]byte) *big.Int {
	q := g.Order()
	// Two SHA-256 blocks give 512 bits, far above any supported order's
	// bit length for P-256; for modp-2048 the 256-bit statistical bias
	// from a single block is irrelevant to soundness, but we extend to
	// cover the order's width anyway.
	need := (q.BitLen() + 7) / 8
	buf := expandHash(Hash(domain, parts...), need+16)
	v := new(big.Int).SetBytes(buf)
	return v.Mod(v, q)
}

// expandHash stretches seed into at least min bytes (whole SHA-256
// blocks) by hashing it with a counter.
func expandHash(seed []byte, min int) []byte {
	buf := make([]byte, 0, min+sha256.Size)
	for ctr := uint64(0); len(buf) < min; ctr++ {
		buf = append(buf, Hash("dissent/hts-expand", seed, HashUint64(ctr))...)
	}
	return buf
}

// HashUint64 renders n big-endian for inclusion in a Hash call.
func HashUint64(n uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], n)
	return b[:]
}
