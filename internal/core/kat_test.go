package core

import (
	"encoding/hex"
	"maps"
	"math/big"
	"os"
	"slices"
	"strings"
	"testing"

	"dissent/internal/beacon"
	"dissent/internal/crypto"
	"dissent/internal/group"
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
// fails the vector that names it. A context's vector is a signature
// drawn from a fixed nonce stream, so it changes with the context.
func TestHashDomainVectors(t *testing.T) {
	g := crypto.P256()
	kp := &crypto.KeyPair{Group: g, Private: big.NewInt(7), Public: g.BaseMult(big.NewInt(7))}
	sign := func(context string, msg []byte) []byte {
		sig, err := kp.Sign(context, msg, crypto.NewAESPRNG([]byte("kat nonce")))
		if err != nil {
			t.Fatal(err)
		}
		return crypto.EncodeSignature(g, sig)
	}
	var gid, rosterDigest [32]byte
	copy(gid[:], "kat group id")
	copy(rosterDigest[:], "kat roster digest")
	m := &Message{From: group.NodeID{1, 2, 3, 4, 5, 6, 7, 8}, Type: MsgShare, Round: 7, Body: []byte("kat body")}
	msgDigest := m.digest(gid)
	var head beacon.Value
	copy(head[:], "kat beacon value")
	cleartext := beacon.CertDigest(9, 2, beacon.CleartextHash([]byte("kat cleartext")), head)
	keys, sigs := [][]byte{[]byte("slot key 0"), []byte("slot key 1")}, [][]byte{[]byte("sig 0"), []byte("sig 1")}
	certDigest := scheduleCertDigest(gid, keys, sigs)
	accusation := accusationDigest(gid, 5, 2, 17)
	checkDomainVectors(t, map[string][]byte{
		"dissent/msg":                  append(msgDigest, sign(msgContext, msgDigest)...),
		"dissent/cleartext-cert":       cleartext,
		"dissent/cleartext":            sign(beacon.CertContext, cleartext),
		"dissent/schedule-cert":        scheduleSignedBytes(gid, keys),
		"dissent/schedule-cert-digest": certDigest[:],
		"dissent/schedule":             sign(scheduleContext, scheduleSignedBytes(gid, keys)),
		"dissent/accusation":           append(accusation, sign(accusationContext, accusation)...),
		"dissent/rebuttal":             rebuttalContext(gid, 3, 1),
		"dissent/roster-perm":          (&node{}).rosterPermSeed(rosterDigest),
	})
}
