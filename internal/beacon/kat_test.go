package beacon

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

// TestHashDomainVectors pins every hash domain and signature context of
// this package: a changed domain string, input order or length prefix
// fails the vector that names it.
func TestHashDomainVectors(t *testing.T) {
	g := crypto.P256()
	var gid, certDigest [32]byte
	copy(gid[:], "kat group id")
	copy(certDigest[:], "kat schedule certificate digest")
	genesis, session := GenesisValue(gid), SessionGenesis(gid, certDigest)
	kp := &crypto.KeyPair{Group: g, Private: big.NewInt(7), Public: g.BaseMult(big.NewInt(7))}
	share, err := MakeShare(kp, 5, genesis, crypto.NewAESPRNG([]byte("kat nonce")))
	if err != nil {
		t.Fatal(err)
	}
	value, clear := computeValue(session, 5, []byte("round certificate")), CleartextHash([]byte("kat cleartext"))
	checkDomainVectors(t, map[string][]byte{
		"dissent/beacon-genesis":   append(genesis[:], session[:]...),
		"dissent/beacon-share-msg": shareMessage(genesis, 5),
		"dissent/beacon-share":     share,
		"dissent/beacon-value":     value[:],
		"dissent/cleartext-hash":   clear[:],
	})
}
