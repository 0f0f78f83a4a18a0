package beacon

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"dissent/internal/crypto"
)

// testServers generates m anytrust server keypairs.
func testServers(t *testing.T, m int) ([]*crypto.KeyPair, []crypto.Element) {
	t.Helper()
	g := crypto.P256()
	kps := make([]*crypto.KeyPair, m)
	pubs := make([]crypto.Element, m)
	for i := range kps {
		kp, err := crypto.GenerateKeyPair(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		kps[i] = kp
		pubs[i] = kp.Public
	}
	return kps, pubs
}

// runRound executes one full commit–reveal exchange and appends the
// resulting entry to every chain in chains.
func runRound(t *testing.T, kps []*crypto.KeyPair, pubs []crypto.Element, round uint64, chains ...*Chain) *Entry {
	t.Helper()
	g := crypto.P256()
	prev := chains[0].Head()
	shares := make([][]byte, len(kps))
	r := NewRound(g, pubs, round, prev)
	for i, kp := range kps {
		share, err := MakeShare(kp, round, prev, nil)
		if err != nil {
			t.Fatal(err)
		}
		shares[i] = share
		if err := r.Commit(i, CommitShare(share)); err != nil {
			t.Fatal(err)
		}
	}
	for i, share := range shares {
		if err := r.Reveal(i, share); err != nil {
			t.Fatal(err)
		}
	}
	e, err := r.Entry()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chains {
		if err := c.Append(e); err != nil {
			t.Fatalf("append round %d: %v", round, err)
		}
	}
	return e
}

func TestThreeServerChainVerifies(t *testing.T) {
	kps, pubs := testServers(t, 3)
	var gid [32]byte
	copy(gid[:], "beacon-test-group-id------------")
	chain := NewChain(crypto.P256(), pubs, GenesisValue(gid), nil)

	for r := uint64(0); r < 10; r++ {
		runRound(t, kps, pubs, r, chain)
	}
	if chain.Len() != 10 {
		t.Fatalf("chain has %d entries, want 10", chain.Len())
	}
	if err := chain.Verify(); err != nil {
		t.Fatalf("chain verification failed: %v", err)
	}
	// Values chain: each entry's Prev is the predecessor's Value.
	for r := uint64(1); r < 10; r++ {
		if chain.Get(r).Prev != chain.Get(r-1).Value {
			t.Fatalf("round %d does not chain from round %d", r, r-1)
		}
	}
	if chain.Get(0).Prev != GenesisValue(gid) {
		t.Fatal("round 0 does not chain from genesis")
	}
	// Distinct outputs every round.
	seen := map[Value]bool{}
	for r := uint64(0); r < 10; r++ {
		v := chain.Get(r).Value
		if seen[v] {
			t.Fatalf("duplicate beacon value at round %d", r)
		}
		seen[v] = true
	}
}

func TestLaggingNodeCatchesUp(t *testing.T) {
	kps, pubs := testServers(t, 3)
	var gid [32]byte
	copy(gid[:], "beacon-catchup-group------------")
	genesis := GenesisValue(gid)
	full := NewChain(crypto.P256(), pubs, genesis, nil)
	lagging := NewChain(crypto.P256(), pubs, genesis, nil)

	// Both nodes see rounds 0-2; the lagging node then misses 5 rounds.
	for r := uint64(0); r < 3; r++ {
		runRound(t, kps, pubs, r, full, lagging)
	}
	for r := uint64(3); r < 8; r++ {
		runRound(t, kps, pubs, r, full)
	}

	added, err := lagging.Sync(chainSource{full})
	if err != nil {
		t.Fatalf("sync: %v", err)
	}
	if added != 5 {
		t.Fatalf("sync added %d entries, want 5", added)
	}
	if lagging.Len() != 8 || lagging.Head() != full.Head() {
		t.Fatalf("lagging chain did not converge: len %d head %x, want len 8 head %x",
			lagging.Len(), lagging.Head(), full.Head())
	}
	if err := lagging.Verify(); err != nil {
		t.Fatalf("caught-up chain fails verification: %v", err)
	}
	// A second sync is a no-op.
	if added, err := lagging.Sync(chainSource{full}); err != nil || added != 0 {
		t.Fatalf("idempotent sync added %d entries, err %v", added, err)
	}
}

// TestCatchupSkipsFailedRounds exercises round-number gaps (DC-net
// rounds that failed produce no beacon entry).
func TestCatchupSkipsFailedRounds(t *testing.T) {
	kps, pubs := testServers(t, 2)
	var gid [32]byte
	copy(gid[:], "beacon-gap-group----------------")
	genesis := GenesisValue(gid)
	full := NewChain(crypto.P256(), pubs, genesis, nil)
	lagging := NewChain(crypto.P256(), pubs, genesis, nil)

	for _, r := range []uint64{0, 1, 4, 7, 9} { // rounds 2,3,5,6,8 failed
		runRound(t, kps, pubs, r, full)
	}
	if added, err := lagging.Sync(chainSource{full}); err != nil || added != 5 {
		t.Fatalf("sync over gaps added %d, err %v", added, err)
	}
	if err := lagging.Verify(); err != nil {
		t.Fatal(err)
	}
}

// chainSource adapts a local chain as a Source for sync tests.
type chainSource struct{ c *Chain }

func (s chainSource) Latest() (*Entry, error) {
	if e := s.c.Latest(); e != nil {
		return e, nil
	}
	return nil, ErrNotFound
}

func (s chainSource) Range(from uint64, max int) ([]*Entry, error) {
	return s.c.RangeFrom(from, max), nil
}

func TestTamperingDetected(t *testing.T) {
	kps, pubs := testServers(t, 3)
	var gid [32]byte
	copy(gid[:], "beacon-tamper-group-------------")

	build := func() *Chain {
		chain := NewChain(crypto.P256(), pubs, GenesisValue(gid), nil)
		for r := uint64(0); r < 5; r++ {
			runRound(t, kps, pubs, r, chain)
		}
		return chain
	}

	cases := []struct {
		name   string
		tamper func(c *Chain)
	}{
		{"share bit flip", func(c *Chain) { c.Get(2).Shares[1][3] ^= 0x40 }},
		{"share swap across rounds", func(c *Chain) {
			c.Get(2).Shares[0], c.Get(3).Shares[0] = c.Get(3).Shares[0], c.Get(2).Shares[0]
		}},
		{"value rewrite", func(c *Chain) { c.Get(4).Value[0] ^= 1 }},
		{"chain link rewrite", func(c *Chain) { c.Get(3).Prev[5] ^= 0x80 }},
		{"round renumber", func(c *Chain) { c.Get(1).Round = 100 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			chain := build()
			if err := chain.Verify(); err != nil {
				t.Fatalf("pristine chain fails: %v", err)
			}
			tc.tamper(chain)
			if err := chain.Verify(); err == nil {
				t.Fatal("tampered chain passed verification")
			}
		})
	}
}

func TestCommitRevealBinding(t *testing.T) {
	kps, pubs := testServers(t, 3)
	g := crypto.P256()
	var prev Value
	copy(prev[:], crypto.Hash("test-prev"))

	share0, _ := MakeShare(kps[0], 7, prev, nil)
	share0b, _ := MakeShare(kps[0], 7, prev, nil) // same message, fresh nonce

	r := NewRound(g, pubs, 7, prev)
	if err := r.Reveal(0, share0); err == nil {
		t.Fatal("reveal before commit accepted")
	}
	if err := r.Commit(0, CommitShare(share0)); err != nil {
		t.Fatal(err)
	}
	// Conflicting re-commit is equivocation.
	if err := r.Commit(0, CommitShare(share0b)); err == nil {
		t.Fatal("conflicting commitment accepted")
	}
	// Revealing a different (even validly signed) share breaks binding.
	if err := r.Reveal(0, share0b); err == nil {
		t.Fatal("share not matching commitment accepted")
	}
	if err := r.Reveal(0, share0); err != nil {
		t.Fatal(err)
	}
	// A share signed by the wrong server fails verification.
	wrong, _ := MakeShare(kps[2], 7, prev, nil)
	if err := r.Commit(1, CommitShare(wrong)); err != nil {
		t.Fatal(err)
	}
	if err := r.Reveal(1, wrong); err == nil {
		t.Fatal("share signed by wrong server accepted")
	}
	// A share over the wrong prev value fails too.
	var otherPrev Value
	copy(otherPrev[:], crypto.Hash("other-prev"))
	stale, _ := MakeShare(kps[1], 7, otherPrev, nil)
	r2 := NewRound(g, pubs, 7, prev)
	if err := r2.Commit(1, CommitShare(stale)); err != nil {
		t.Fatal(err)
	}
	if err := r2.Reveal(1, stale); err == nil {
		t.Fatal("share chained from wrong prev accepted")
	}
}

func TestHTTPRoundTrip(t *testing.T) {
	kps, pubs := testServers(t, 3)
	var gid [32]byte
	copy(gid[:], "beacon-http-group---------------")
	genesis := GenesisValue(gid)
	serving := NewChain(crypto.P256(), pubs, genesis, nil)
	for r := uint64(0); r < 6; r++ {
		runRound(t, kps, pubs, r, serving)
	}

	var requests atomic.Int64
	handler := Handler(serving, func() *ScheduleCert { return nil })
	counted := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		handler.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(counted)
	defer ts.Close()
	src := &HTTPSource{URL: ts.URL, Client: ts.Client()}

	latest, err := src.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if latest.Round != 5 || latest.Value != serving.Head() {
		t.Fatalf("latest = round %d, want 5", latest.Round)
	}
	var e3 entryJSON
	if status := getStatus(t, ts, "/beacon/3", &e3); status != http.StatusOK {
		t.Fatalf("GET /beacon/3: status %d", status)
	}
	if want := encodeEntry(serving.Get(3)); e3.Round != 3 || e3.Value != want.Value {
		t.Fatal("exact-round fetch mismatch")
	}
	if status := getStatus(t, ts, "/beacon/99", nil); status != http.StatusNotFound {
		t.Fatalf("GET /beacon/99: status %d, want 404", status)
	}
	// Before setup certifies a schedule the route answers 404 (not the
	// {round} route's 400), which HTTPSource reads as "not yet".
	if status := getStatus(t, ts, "/beacon/schedule", nil); status != http.StatusNotFound {
		t.Fatalf("GET /beacon/schedule: status %d, want 404", status)
	}
	if _, err := src.Schedule(); err != ErrNotFound {
		t.Fatalf("uncertified schedule: got %v, want ErrNotFound", err)
	}

	// A fresh client verifies the whole chain over HTTP.
	client := NewChain(crypto.P256(), pubs, genesis, nil)
	requests.Store(0)
	added, err := client.Sync(src)
	if err != nil {
		t.Fatal(err)
	}
	if added != 6 || client.Head() != serving.Head() {
		t.Fatalf("HTTP sync added %d entries, head match %v", added, client.Head() == serving.Head())
	}
	if err := client.Verify(); err != nil {
		t.Fatal(err)
	}
	// Batch catchup: 6 entries must not cost 6 round trips (one
	// /beacon/latest plus one /beacon/range page suffices).
	if n := requests.Load(); n > 3 {
		t.Fatalf("sync of 6 entries used %d HTTP requests", n)
	}
}

// getStatus GETs path from ts and, on 200 with v non-nil, decodes the
// JSON body into v.
func getStatus(t *testing.T, ts *httptest.Server, path string, v any) int {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	return resp.StatusCode
}
