package beacon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/big"
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

// runRound certifies round as the servers do — every server's nonce,
// one challenge over the certificate digest chained on the first
// chain's head, the partial responses combined into one signature under
// the aggregate key — and appends the resulting entry to every chain in
// chains.
func runRound(t *testing.T, kps []*crypto.KeyPair, pubs []crypto.Element, round uint64, chains ...*Chain) *Entry {
	t.Helper()
	e := certify(t, kps, pubs, round, chains[0].Head())
	for _, c := range chains {
		if err := c.Append(e); err != nil {
			t.Fatalf("append round %d: %v", round, err)
		}
	}
	return e
}

// certify returns round's entry chained on prev, over a cleartext and
// participation count derived from the round number.
func certify(t *testing.T, kps []*crypto.KeyPair, pubs []crypto.Element, round uint64, prev Value) *Entry {
	t.Helper()
	g := crypto.P256()
	ms := crypto.NewMultisig(g, pubs)
	ks, nonces := make([]*big.Int, len(kps)), make([]crypto.Element, len(kps))
	for i := range kps {
		k, err := g.RandomScalar(nil)
		if err != nil {
			t.Fatal(err)
		}
		ks[i], nonces[i] = k, g.BaseMult(k)
	}
	count, clear := uint32(round%7+1), CleartextHash([]byte(fmt.Sprintf("cleartext of round %d", round)))
	c := ms.Challenge(CertContext, nonces, CertDigest(round, count, clear, prev))
	partials := make([]*big.Int, len(kps))
	for i, kp := range kps {
		partials[i] = ms.Respond(i, kp.Private, ks[i], c)
	}
	return NewEntry(round, count, clear, crypto.EncodeSignature(g, ms.Combine(c, partials)), prev)
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

	// A fork grown from another genesis holds validly certified
	// entries that chain from the wrong values.
	var otherGID [32]byte
	copy(otherGID[:], "beacon-tamper-fork--------------")
	fork := NewChain(crypto.P256(), pubs, GenesisValue(otherGID), nil)
	for r := uint64(0); r < 5; r++ {
		runRound(t, kps, pubs, r, fork)
	}
	cases := []struct {
		name   string
		tamper func(c *Chain)
	}{
		{"sig bit flip", func(c *Chain) { c.Get(2).Sig[3] ^= 0x40 }},
		{"sig swap across rounds", func(c *Chain) { c.Get(2).Sig, c.Get(3).Sig = c.Get(3).Sig, c.Get(2).Sig }},
		{"count bit flip", func(c *Chain) { c.Get(2).Count ^= 1 }},
		{"cleartext hash bit flip", func(c *Chain) { c.Get(2).Cleartext[7] ^= 0x02 }},
		{"value rewrite", func(c *Chain) { c.Get(4).Value[0] ^= 1 }},
		{"chain link rewrite", func(c *Chain) { c.Get(3).Prev[5] ^= 0x80 }},
		{"forked entry", func(c *Chain) { *c.Get(3) = *fork.Get(3) }},
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

// TestVerifyEntryChecksEveryCertifiedInput: an entry verifies from its
// certificate alone — the chain's keys and the value it extends — and
// flipping any one bit of the signature, the count or the cleartext
// hash fails the check.
func TestVerifyEntryChecksEveryCertifiedInput(t *testing.T) {
	kps, pubs := testServers(t, 3)
	var gid [32]byte
	copy(gid[:], "beacon-verify-entry-group-------")
	verifier := NewChain(crypto.P256(), pubs, GenesisValue(gid), nil)
	prev := GenesisValue(gid)
	e := certify(t, kps, pubs, 4, prev)
	if err := verifier.VerifyEntry(prev, e); err != nil {
		t.Fatalf("pristine entry: %v", err)
	}
	flips := 0
	check := func(field string, bit int, flip func(*Entry)) {
		bad := *e
		bad.Sig = append([]byte(nil), e.Sig...)
		flip(&bad)
		if err := verifier.VerifyEntry(prev, &bad); err == nil {
			t.Errorf("%s with bit %d flipped verified", field, bit)
		}
		flips++
	}
	for bit := 0; bit < 8*len(e.Sig); bit++ {
		check("sig", bit, func(b *Entry) { b.Sig[bit/8] ^= 1 << (bit % 8) })
	}
	for bit := 0; bit < 32; bit++ {
		check("count", bit, func(b *Entry) { b.Count ^= 1 << bit })
	}
	for bit := 0; bit < 8*ValueLen; bit++ {
		check("cleartext hash", bit, func(b *Entry) { b.Cleartext[bit/8] ^= 1 << (bit % 8) })
	}
	if flips != 8*64+32+8*ValueLen {
		t.Fatalf("checked %d flips", flips)
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

	var latest Entry
	if status := getStatus(t, ts, "/beacon/latest", &latest); status != http.StatusOK {
		t.Fatalf("GET /beacon/latest: status %d", status)
	}
	if latest.Round != 5 || latest.Value != serving.Head() {
		t.Fatalf("latest = round %d, want 5", latest.Round)
	}
	var e3 Entry
	if status := getStatus(t, ts, "/beacon/3", &e3); status != http.StatusOK {
		t.Fatalf("GET /beacon/3: status %d", status)
	}
	if want := serving.Get(3); e3.Round != 3 || e3.Value != want.Value || !bytes.Equal(e3.Sig, want.Sig) ||
		e3.Count != want.Count || e3.Cleartext != want.Cleartext || e3.Prev != want.Prev {
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
	// /beacon/range page and the empty one after it suffice).
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
