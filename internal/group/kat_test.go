package group

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
	g, m := crypto.P256(), crypto.ModP512Test()
	keys := func(g crypto.Group, ks ...int64) []crypto.Element {
		out := make([]crypto.Element, len(ks))
		for i, k := range ks {
			out[i] = g.BaseMult(big.NewInt(k))
		}
		return out
	}
	policy := DefaultPolicy()
	policy.MessageGroup = "modp-512-test"
	def, err := NewDefinition("kat", keys(g, 2, 3), keys(m, 5, 7), keys(g, 11, 13, 17), policy)
	if err != nil {
		t.Fatal(err)
	}
	gid, genesis := def.GroupID(), def.RosterDigest()
	u := &RosterUpdate{
		Version:    1,
		PrevDigest: genesis,
		Admit:      []RosterMember{{PubKey: g.Encode(keys(g, 19)[0]), PseuKey: []byte("pseudonym"), Addr: "10.0.0.1:7500"}},
		Remove:     []NodeID{def.Clients[0].ID},
		Sigs:       [][]byte{[]byte("signatures are not signed")},
	}
	digest := u.Digest(gid)
	kp := &crypto.KeyPair{Group: g, Private: big.NewInt(23), Public: keys(g, 23)[0]}
	sig, err := kp.Sign(RosterSignContext, u.SignedBytes(gid), crypto.NewAESPRNG([]byte("kat nonce")))
	if err != nil {
		t.Fatal(err)
	}
	id := IDFromKey(g, keys(g, 2)[0])
	checkDomainVectors(t, map[string][]byte{
		"dissent/node-id":        id[:],
		"dissent/group-id":       gid[:],
		"dissent/roster-genesis": genesis[:],
		"dissent/roster-update":  u.SignedBytes(gid),
		"dissent/roster-digest":  digest[:],
		"dissent/roster":         crypto.EncodeSignature(g, sig),
	})
}
