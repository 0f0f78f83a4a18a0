package crypto

import (
	"encoding/hex"
	"maps"
	"math/big"
	"os"
	"slices"
	"strings"
	"testing"
)

// checkDomainVectors compares each domain's output on fixed inputs with
// its line in testdata/kat/hash-domains.txt, one subtest per domain.
func checkDomainVectors(t *testing.T, got map[string][]byte) {
	kat, err := os.ReadFile("../../testdata/kat/hash-domains.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range slices.Sorted(maps.Keys(got)) {
		t.Run(strings.TrimPrefix(d, "dissent/"), func(t *testing.T) {
			if line := d + " " + hex.EncodeToString(got[d]) + "\n"; !strings.Contains(string(kat), line) {
				t.Errorf("no vector matches; this tree computes\n%s", line)
			}
		})
	}
}

// TestHashDomainVectors pins every hash domain of this package: a
// changed domain string, input order or length prefix fails the vector
// that names it.
func TestHashDomainVectors(t *testing.T) {
	g, m := P256(), ModP512Test()
	seed := []byte("kat seed")
	el := func(k int64) Element { return g.BaseMult(big.NewInt(k)) }
	els := func(ks ...int64) []Element {
		out := make([]Element, len(ks))
		for i, k := range ks {
			out[i] = el(k)
		}
		return out
	}
	scalars := func(ks []*big.Int) []byte {
		var b []byte
		for _, k := range ks {
			b = append(b, EncodeScalar(g, k)...)
		}
		return b
	}
	stream := func(p PRNG) []byte {
		b := make([]byte, 32)
		p.Read(b)
		return b
	}
	ms := NewMultisig(g, els(2, 3, 5))
	checkDomainVectors(t, map[string][]byte{
		"dissent/hts-expand":      expandHash(seed, 48),
		"dissent/hash-to-element": append(g.Encode(g.HashToElement(seed)), m.Encode(m.HashToElement(seed))...),
		"dissent/prng-key":        stream(NewAESPRNG(seed)),
		"dissent/fast-prng":       stream(NewFastPRNG(seed)),
		"dissent/dleq":            EncodeScalar(g, dleqChallenge(g, el(2), el(3), el(5), el(7), el(11), seed)),
		"dissent/dleq-batch":      scalars(dleqBatchWeights(g, els(2, 3), els(5, 7), el(11), seed)),
		"dissent/dleq-batch-rho":  scalars(dleqBatchWeights(g, els(13), els(17), el(19), seed)),
		"dissent/schnorr":         EncodeScalar(g, schnorrChallenge(g, "kat context", el(2), el(3), seed)),
		"dissent/shared-seed":     SecretSeed(g, el(2), el(3), el(5)),
		"dissent/multisig-keys":   g.Encode(ms.Key()),
		"dissent/multisig-coef":   scalars(ms.coefs),
	})
}
