package dcnet

import (
	"encoding/hex"
	"maps"
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
	s := mustSchedule(t, Config{NumSlots: 4, DefaultOpenLen: 64, MaxSlotLen: 1024, Lag: 1})
	digest := s.Digest()
	var perm []byte
	for _, p := range PermFromSeed([]byte("kat seed"), 16) {
		perm = append(perm, byte(p))
	}
	checkDomainVectors(t, map[string][]byte{
		"dissent/round-stream": RoundSeed([]byte("kat pair seed"), 42),
		"dissent/epoch-perm":   perm,
		"dissent/sched-digest": digest[:],
	})
}
