package shuffle

import (
	"encoding/hex"
	"maps"
	"math/big"
	"os"
	"slices"
	"strings"
	"testing"

	"dissent/internal/crypto"
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
	g := crypto.P256()
	el := func(k int64) crypto.Element { return g.BaseMult(big.NewInt(k)) }
	in := []Vec{{{C1: el(2), C2: el(3)}}, {{C1: el(5), C2: el(7)}}}
	out := []Vec{{{C1: el(11), C2: el(13)}}, {{C1: el(17), C2: el(19)}}}
	statement := transcript(g, el(23), in, out)
	seed := challengeSeed(g, statement, []crypto.Element{el(29), el(31)})
	var u []byte
	for _, x := range challengeVector(seed, 3) {
		u = append(u, crypto.EncodeScalar(g, x)...)
	}
	h, hs := generators(g, 2)
	p := &Proof{Chain: []crypto.Element{el(37)}, T1: el(41), T2: el(43), T3: el(47),
		T4: Vec{{C1: el(53), C2: el(59)}}, THat: []crypto.Element{el(61)}}
	strip, err := crypto.ProveDLEQBatch(g, big.NewInt(67), []crypto.Element{el(2), el(3)},
		[]crypto.Element{el(2 * 67), el(3 * 67)}, el(67), stripContext, crypto.NewAESPRNG([]byte("kat nonce")))
	if err != nil {
		t.Fatal(err)
	}
	checkDomainVectors(t, map[string][]byte{
		"dissent/shuffle-generator": encodeElements(g, append([]crypto.Element{h}, hs...)),
		"dissent/shuffle-statement": statement,
		"dissent/shuffle-challenge": seed,
		"dissent/shuffle-u":         u,
		"dissent/shuffle-sigma":     crypto.EncodeScalar(g, sigmaChallenge(g, seed, p)),
		"dissent/shuffle-strip":     append(crypto.EncodeScalar(g, strip.C), crypto.EncodeScalar(g, strip.Z)...),
	})
}
