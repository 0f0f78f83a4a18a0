package dissent_test

// SDK-level durability tests: a server session backed by
// WithStateStore is killed mid-session and a fresh process (a new Host
// and session over the same store file) resumes the live session —
// through the public API alone.

import (
	"context"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"dissent"
)

// TestSDKServerRestartResumesFromStateStore kills a state-store-backed
// server after the group has certified rounds, then restarts it as a
// brand-new session on a fresh Host against the same store file. The
// restarted session must resume from the store (EventStateRestored,
// StateRestores 1), rejoin the round pipeline without a fresh setup,
// and observe new certified rounds — including a payload sent only
// after the restart.
func TestSDKServerRestartResumesFromStateStore(t *testing.T) {
	policy := testPolicy(func(p *dissent.Policy) { p.BeaconEpochRounds = 4 })
	sKeys, cKeys, grp := buildGroup(t, 3, 4, policy)
	net := dissent.NewSimNet()
	defer net.Close()
	net.SetLatency(func(from, to dissent.NodeID) time.Duration { return time.Millisecond })

	storePath := filepath.Join(t.TempDir(), "srv0.kv")
	kv, err := dissent.OpenStateStore(storePath)
	if err != nil {
		t.Fatal(err)
	}

	// Server 0 runs on a Host of its own so it can be killed alone; the
	// rest of the group runs beside it.
	host0 := newHost(t, dissent.WithHostSimNet(net))
	defer host0.Close()
	srv0, err := host0.OpenSession(grp, sKeys[0], dissent.WithStateStore(kv))
	if err != nil {
		t.Fatal(err)
	}
	rest := startGroup(t, grp, sKeys[1:], cKeys, onSimNet(net))
	defer rest.stop(t)

	// Let the session establish its schedule and certify a few rounds
	// so the store holds a mid-session snapshot worth resuming.
	waitRounds := func(sess *dissent.Session, n int, what string) {
		t.Helper()
		ch := sess.Subscribe(dissent.EventRoundComplete)
		deadline := time.After(60 * time.Second)
		for i := 0; i < n; i++ {
			select {
			case _, ok := <-ch:
				if !ok {
					t.Fatalf("%s: subscription closed early", what)
				}
			case <-deadline:
				t.Fatalf("%s: only %d/%d rounds after 60s", what, i, n)
			}
		}
	}
	waitRounds(srv0, 3, "pre-kill rounds")

	// Kill server 0 the way a crash looks to everyone else: its Host
	// closes, its link detaches, its store file stays behind.
	if err := host0.Close(); err != nil {
		t.Fatalf("killed server's Host.Close returned %v", err)
	}
	select {
	case <-srv0.Done():
	case <-time.After(20 * time.Second):
		t.Fatal("killed server did not stop")
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: a brand-new Host and session (fresh process in real life)
	// over the same store file. OpenStateStore must keep the snapshot — a
	// wiped store here would silently fall back to a fresh setup and hang.
	kv2, err := dissent.OpenStateStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	defer kv2.Close()
	if kv2.Len() == 0 {
		t.Fatal("state store was cleared on reopen despite holding a session snapshot")
	}
	host0b := newHost(t, dissent.WithHostSimNet(net))
	defer host0b.Close()

	// The restore runs inside OpenSession. Subscriptions that race it
	// (reaching the session through the Host while it opens) and one
	// made afterwards must each carry EventStateRestored exactly once.
	sid := dissent.GroupSessionID(grp)
	racers := make(chan (<-chan dissent.Event), 4)
	stopRacers := make(chan struct{})
	defer close(stopRacers)
	for i := 0; i < cap(racers); i++ {
		go func() {
			for {
				if s := host0b.Session(sid); s != nil {
					racers <- s.Subscribe(dissent.EventStateRestored)
					return
				}
				select {
				case <-stopRacers:
					return
				default:
					runtime.Gosched()
				}
			}
		}()
	}
	beaconAddr := reservePort(t)
	srv0b, err := host0b.OpenSession(grp, sKeys[0], dissent.WithStateStore(kv2), dissent.WithBeaconHTTP(beaconAddr))
	if err != nil {
		t.Fatal(err)
	}
	restored := srv0b.Subscribe(dissent.EventStateRestored)
	var restoredAt uint64
	select {
	case e, ok := <-restored:
		if !ok {
			t.Fatal("restore subscription closed early")
		}
		t.Logf("restored: round %d, %s", e.Round, e.Detail)
		restoredAt = e.Round
	case <-time.After(20 * time.Second):
		t.Fatal("restarted server never fired EventStateRestored")
	}
	if n := srv0b.Metrics().StateRestores; n != 1 {
		t.Fatalf("restarted server StateRestores = %d, want 1", n)
	}

	// The restarted server certifies new rounds with the group...
	waitRounds(srv0b, 3, "post-restart rounds")

	// ...and a payload sent only after the restart flows end to end,
	// surfacing at the restarted server itself.
	const payload = "sent after the restart"
	if err := rest.clients[len(rest.clients)-1].Send(context.Background(), []byte(payload)); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(60 * time.Second)
	for surfaced := false; !surfaced; {
		select {
		case m, ok := <-srv0b.Messages():
			if !ok {
				t.Fatal("message channel closed early")
			}
			surfaced = string(m.Data) == payload
		case <-deadline:
			t.Fatal("post-restart payload never surfaced at the restarted server")
		}
	}

	// An external verifier syncs the restarted server's chain over HTTP:
	// entries certified before the crash, reloaded from the store, and
	// after it, across an epoch boundary, verify from their certificates.
	res, err := dissent.SyncBeacon("http://"+beaconAddr, grp)
	if err != nil {
		t.Fatalf("SyncBeacon against the restarted server: %v", err)
	}
	entries := res.Chain.RangeFrom(0, 1<<20)
	if len(entries) == 0 {
		t.Fatal("synced chain is empty")
	}
	first, last := entries[0].Round, entries[len(entries)-1].Round
	if !res.SessionBound || first >= min(restoredAt, 4) || last < max(restoredAt, 4) {
		t.Fatalf("synced chain (session-bound %v) holds rounds %d..%d, want both sides of the restore at round %d and of the epoch boundary at 4",
			res.SessionBound, first, last, restoredAt)
	}

	// Events reach a subscription synchronously, so by now every
	// restore event any subscription will get sits in its buffer.
	if n := len(restored); n != 0 {
		t.Errorf("subscription made after the open got %d more EventStateRestored, want none", n)
	}
	for i := 0; i < cap(racers); i++ {
		if n := len(<-racers); n != 1 {
			t.Errorf("racing subscription %d got %d EventStateRestored, want 1", i, n)
		}
	}
}

// TestOpenStateStoreClearsStaleContent pins the fresh-session
// semantics: a store file with content but no session snapshot (e.g.
// an abandoned run's beacon bucket) is cleared at open so it cannot
// poison the new session's replica.
func TestOpenStateStoreClearsStaleContent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stale.kv")
	kv, err := dissent.OpenStateStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.Put("beacon", "0001", []byte("stale")); err != nil {
		t.Fatal(err)
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	kv2, err := dissent.OpenStateStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer kv2.Close()
	if n := kv2.Len(); n != 0 {
		t.Fatalf("stale snapshot-less store reopened with %d records, want 0", n)
	}
}

// TestOpenSessionRefusesDamagedBeaconBucket: a state store whose beacon
// bucket holds a record that does not decode refuses the session open.
// Falling back to an in-memory chain would leave a restored server with
// an empty chain whose head is the session genesis, so it would certify
// its next round over the wrong head and no round could certify.
func TestOpenSessionRefusesDamagedBeaconBucket(t *testing.T) {
	policy := testPolicy(func(p *dissent.Policy) { p.BeaconEpochRounds = 4 })
	sKeys, _, grp := buildGroup(t, 3, 4, policy)
	kv, err := dissent.OpenStateStore(filepath.Join(t.TempDir(), "srv0.kv"))
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if err := kv.Put("beacon", "00000000000000000000", []byte("not a beacon entry")); err != nil {
		t.Fatal(err)
	}
	net := dissent.NewSimNet()
	defer net.Close()
	host := newHost(t, dissent.WithHostSimNet(net))
	defer host.Close()
	sess, err := host.OpenSession(grp, sKeys[0], dissent.WithStateStore(kv))
	if err == nil {
		sess.Close()
		t.Fatal("session opened over a damaged beacon bucket")
	}
	if !strings.Contains(err.Error(), "beacon bucket") {
		t.Fatalf("open error %q does not name the beacon bucket", err)
	}
}

// TestOpenSessionRefusesOlderRecordLayout: a state store holding records
// in an older layout — a beacon entry as JSON, from before records
// carried a format byte; a beacon entry of per-server shares in record
// format 1, from before the round certificate became the entry; a
// snapshot whose first byte is 0x00 — refuses the session open with an
// error naming both formats, instead of loading a misparsed record.
func TestOpenSessionRefusesOlderRecordLayout(t *testing.T) {
	policy := testPolicy(func(p *dissent.Policy) { p.BeaconEpochRounds = 4 })
	sKeys, _, grp := buildGroup(t, 3, 4, policy)
	hexVal := strings.Repeat("ab", 32)
	for _, c := range []struct {
		name, bucket, key string
		record            []byte
		want              []string
	}{
		{"beacon entry", "beacon", "00000000000000000003",
			[]byte(`{"round":3,"prev":"` + hexVal + `","value":"` + hexVal + `","shares":["0102"]}`),
			[]string{"beacon bucket", "format 0x7b", "format 0x02"}},
		// Format 1: round, prev, value, then the list of shares.
		{"beacon entry of shares", "beacon", "00000000000000000003",
			append(append([]byte{1, 0, 0, 0, 0, 0, 0, 0, 3}, make([]byte, 64)...), 0, 0, 0, 1, 0, 0, 0, 2, 1, 2),
			[]string{"beacon bucket", "format 0x01", "format 0x02"}},
		{"snapshot", "snapshot", "server", make([]byte, 64),
			[]string{"snapshot", "format 0x00", "format 0x02"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			kv, err := dissent.OpenStateStore(filepath.Join(t.TempDir(), "srv0.kv"))
			if err != nil {
				t.Fatal(err)
			}
			defer kv.Close()
			if err := kv.Put(c.bucket, c.key, c.record); err != nil {
				t.Fatal(err)
			}
			net := dissent.NewSimNet()
			defer net.Close()
			host := newHost(t, dissent.WithHostSimNet(net))
			defer host.Close()
			sess, err := host.OpenSession(grp, sKeys[0], dissent.WithStateStore(kv))
			if err == nil {
				sess.Close()
				t.Fatal("session opened over a store in the older record layout")
			}
			for _, w := range c.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("open error %q does not name %s", err, w)
				}
			}
		})
	}
}
