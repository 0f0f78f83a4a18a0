package beacon

import (
	"path/filepath"
	"testing"

	"dissent/internal/crypto"
	"dissent/internal/store"
)

func openKV(t *testing.T, path string) *store.KV {
	t.Helper()
	kv, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { kv.Close() })
	return kv
}

func TestKVStoreChainSurvivesReopen(t *testing.T) {
	kps, pubs := testServers(t, 3)
	var gid [32]byte
	copy(gid[:], "beacon-kvstore-group------------")
	genesis := GenesisValue(gid)
	path := filepath.Join(t.TempDir(), "state.kv")

	kv := openKV(t, path)
	st, err := NewKVStore(kv, "beacon")
	if err != nil {
		t.Fatal(err)
	}
	chain := NewChain(crypto.P256(), pubs, genesis, st)
	for r := uint64(0); r < 6; r++ {
		runRound(t, kps, pubs, r, chain)
	}
	head := chain.Head()
	kv.Close()

	kv2 := openKV(t, path)
	st2, err := NewKVStore(kv2, "beacon")
	if err != nil {
		t.Fatal(err)
	}
	chain2 := NewChain(crypto.P256(), pubs, genesis, st2)
	if chain2.Len() != 6 {
		t.Fatalf("reopened chain has %d entries, want 6", chain2.Len())
	}
	if chain2.Head() != head {
		t.Fatal("reopened chain head differs")
	}
	if err := chain2.Verify(); err != nil {
		t.Fatalf("reopened chain fails verification: %v", err)
	}
	// And it keeps extending.
	runRound(t, kps, pubs, 6, chain2)
}

// TestKVStoreRefusesDamage: a bucket record that breaks round order
// refuses the open, and a chain reset leaves nothing for a reopen to
// load.
func TestKVStoreRefusesDamage(t *testing.T) {
	kps, pubs := testServers(t, 3)
	var gid [32]byte
	copy(gid[:], "beacon-kvstore-damage-----------")
	genesis := GenesisValue(gid)
	kv := openKV(t, filepath.Join(t.TempDir(), "state.kv"))
	st, err := NewKVStore(kv, "beacon")
	if err != nil {
		t.Fatal(err)
	}
	chain := NewChain(crypto.P256(), pubs, genesis, st)
	for r := uint64(0); r < 3; r++ {
		runRound(t, kps, pubs, r, chain)
	}

	// Round 0's record under a later key sorts after round 2.
	raw, ok := kv.Get("beacon", roundKey(0))
	if !ok {
		t.Fatal("entry 0 missing from KV")
	}
	if err := kv.Put("beacon", roundKey(7), raw); err != nil {
		t.Fatal(err)
	}
	if _, err := NewKVStore(kv, "beacon"); err == nil {
		t.Fatal("out-of-order bucket opened")
	}
	if err := kv.Delete("beacon", roundKey(7)); err != nil {
		t.Fatal(err)
	}

	if err := chain.ResetTrusted(genesis); err != nil {
		t.Fatal(err)
	}
	if chain.Len() != 0 || chain.Head() != genesis {
		t.Fatalf("reset chain has %d entries", chain.Len())
	}
	st2, err := NewKVStore(kv, "beacon")
	if err != nil {
		t.Fatal(err)
	}
	if n := NewChain(crypto.P256(), pubs, genesis, st2).Len(); n != 0 {
		t.Fatalf("reopened reset chain has %d entries, want 0", n)
	}
}
