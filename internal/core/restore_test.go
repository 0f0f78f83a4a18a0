package core

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dissent/internal/beacon"
	"dissent/internal/crypto"
	"dissent/internal/group"
	"dissent/internal/store"
)

// blackholeEngine swallows everything addressed to a killed node.
type blackholeEngine struct{}

func (blackholeEngine) Start(time.Time) (*Output, error)            { return &Output{}, nil }
func (blackholeEngine) Handle(time.Time, *Message) (*Output, error) { return &Output{}, nil }
func (blackholeEngine) Tick(time.Time) (*Output, error)             { return &Output{}, nil }

// step drives the harness a bounded number of events regardless of
// round progress (used while the session is intentionally wedged).
func (f *fixture) step(n int64) {
	f.t.Helper()
	for i := int64(0); i < n; i++ {
		if !f.h.Net.Step() {
			break
		}
	}
	for _, err := range f.h.Errors {
		f.t.Errorf("harness error: %v", err)
	}
	f.h.Errors = nil
}

// durableFixture is a 3-server, 4-client group whose servers persist
// into per-server KV files, for kill/restart tests.
type durableFixture struct {
	*fixture
	dir string
	kvs []*store.KV
}

func (d *durableFixture) openKV(i int) *store.KV {
	kv, err := store.Open(filepath.Join(d.dir, fmt.Sprintf("srv%d.kv", i)))
	if err != nil {
		d.t.Fatal(err)
	}
	return kv
}

func (d *durableFixture) durableOpts(idx int, o *Options) {
	o.StateStore = d.kvs[idx]
	bs, err := beacon.NewKVStore(d.kvs[idx], "beacon")
	if err != nil {
		d.t.Fatal(err)
	}
	o.BeaconStore = bs
}

func newDurableFixture(t *testing.T, epoch int) *durableFixture {
	// The stores must exist before the engines that persist into them;
	// until then a bare fixture carries t for the helpers' failures.
	d := &durableFixture{fixture: &fixture{t: t}, dir: t.TempDir(), kvs: make([]*store.KV, 3)}
	for i := range d.kvs {
		d.kvs[i] = d.openKV(i)
	}
	d.fixture = newFixture(t, 3, 4, fixtureOpts{
		mutatePolicy: func(p *group.Policy) {
			p.BeaconEpochRounds = epoch
			p.Alpha = 0.25 // a victim's direct clients' submissions die with it
		},
		serverOpts: d.durableOpts,
	})
	return d
}

// kill crashes server idx: its traffic goes to a black hole and its
// store file closes as the dead process's would.
func (d *durableFixture) kill(idx int) {
	d.h.SwapEngine(d.def.Servers[idx].ID, blackholeEngine{})
	if err := d.kvs[idx].Close(); err != nil {
		d.t.Fatal(err)
	}
}

// restart brings server idx back: a fresh engine over the genesis
// definition and the same keys, restored from the reopened store.
func (d *durableFixture) restart(idx int) *Server {
	d.t.Helper()
	id := d.def.Servers[idx].ID
	d.kvs[idx] = d.openKV(idx)
	opts := Options{MessageGroup: crypto.ModP512Test()}
	d.durableOpts(idx, &opts)
	restored, err := NewServer(d.def, d.kpByID[id], d.msgKPByIdx[idx], opts)
	if err != nil {
		d.t.Fatal(err)
	}
	now := d.h.Net.Now()
	out, ok, err := restored.RestoreFromStore(now)
	if err != nil {
		d.t.Fatal(err)
	}
	if !ok {
		d.t.Fatal("no snapshot found in the victim's store")
	}
	d.servers[idx] = restored
	d.h.SwapEngine(id, restored)
	d.h.ProcessExternal(id, now, out, nil)
	return restored
}

// TestServerSnapshotRoundTrip pins the snapshot codec.
func TestServerSnapshotRoundTrip(t *testing.T) {
	sn := &ServerSnapshot{
		Version:    7,
		Round:      123,
		PrevCount:  9,
		DrainRound: 120,
		RosterDue:  1,
		BlameDue:   1,
		BlameHold:  124,
		CertKeys:   [][]byte{{1, 2}, {3}},
		CertSigs:   [][]byte{{4}, {5, 6}},
		SlotKeys:   [][]byte{{7}, {8}, {9}},
		Sched:      []byte{0, 0, 0, 0, 0, 0, 0, 122, 0, 0, 0, 0},
		ExpelIdx:   []int32{4},
		ExpelAt:    []uint64{100},

		BlameSession: 5,
		Restarts:     2,
	}
	got, err := DecodeServerSnapshot(sn.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", sn) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, sn)
	}
}

// TestServerRestartMidEpochResumes kills one of three servers mid-epoch
// (mid-session, with rounds in flight), restarts it from its durable
// store, and asserts the session resumes certifying rounds without any
// manual rejoin: the restored server replays its roster chain, reopens
// the wedged rounds at a recovery attempt, adopts any round its peers
// certified without it, and the whole group reaches round and roster
// convergence again — including payloads sent after the restart.
func TestServerRestartMidEpochResumes(t *testing.T) {
	const epoch = 6
	d := newDurableFixture(t, epoch)
	f := d.fixture

	// Run past the first epoch boundary into the middle of the second
	// epoch, then kill server 0 with rounds in flight.
	f.h.StartAll()
	f.stepUntilRound(epoch+2, 2_000_000)
	vid := f.def.Servers[0].ID
	killRound := f.servers[0].Round()
	d.kill(0)
	// Let the survivors run into the wedge: no round can certify while
	// one server is down, so they re-broadcast and wait.
	f.step(3000)
	for _, s := range f.servers[1:] {
		if s.Round() > killRound+1 {
			t.Fatalf("server %d certified round %d with a peer down (killed at %d)",
				s.Index(), s.Round(), killRound)
		}
	}

	restored := d.restart(0)
	if restored.Round() > killRound || restored.Round()+2 < killRound {
		t.Fatalf("restored at round %d, killed at %d", restored.Round(), killRound)
	}
	if f.h.FirstEvent(vid, EventStateRestored) == nil {
		t.Fatal("restore emitted no EventStateRestored")
	}

	// The session must resume certifying rounds, through the next epoch
	// boundary and beyond, with every replica converged.
	f.stepUntilRound(killRound+2*epoch, 4_000_000)
	for _, s := range f.servers {
		if s.Round() <= killRound+2*epoch {
			t.Fatalf("server %d stuck at round %d after restart (killed at %d); violations: %v",
				s.Index(), s.Round(), killRound, f.violations())
		}
	}
	v := f.servers[0].RosterVersion()
	if v == 0 {
		t.Fatal("roster version never advanced")
	}
	for _, s := range f.servers[1:] {
		if s.RosterVersion() != v {
			t.Fatalf("roster versions diverged after restart: %d vs %d", v, s.RosterVersion())
		}
	}

	// Anonymous traffic still flows end to end after the restart.
	f.clients[0].Send([]byte("after the restart"))
	f.stepUntilRound(f.servers[0].Round()+2, 1_000_000)
	found := false
	for _, d := range f.h.Deliveries {
		if string(d.Data) == "after the restart" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("post-restart payload never delivered; violations: %v", f.violations())
	}
}

// TestServerDoubleCrashInOneRound kills a server, restarts it, and kills
// it again inside the recovery round it reopened — the moment a peer
// holds its commitment for that round's recovery attempt, which its peers
// can no longer certify without it. The second restart must reopen the
// round above that attempt, so the peers abandon the commitment it can
// no longer honour and the round certifies within a bounded number of
// steps.
func TestServerDoubleCrashInOneRound(t *testing.T) {
	const epoch = 12
	d := newDurableFixture(t, epoch)
	f := d.fixture
	f.h.StartAll()
	f.stepUntilRound(3, 2_000_000)
	d.kill(0)
	f.step(3000)
	d.restart(0)

	peer := f.servers[1]
	var round uint64
	caught := false
	for i := 0; i < 200_000 && !caught && f.h.Net.Step(); i++ {
		for _, rs := range peer.rounds {
			if rs.attempt > maxAttempts && rs.commits[0] != nil {
				round, caught = rs.r, true
			}
		}
	}
	if !caught {
		t.Fatal("no peer ever held the restored server's recovery commitment")
	}
	d.kill(0)
	f.step(3000)
	d.restart(0)

	f.stepUntilRound(round, 2_000)
	for _, s := range f.servers {
		if s.Round() <= round {
			t.Fatalf("server %d stuck at round %d after the second restart; violations: %v",
				s.Index(), s.Round(), f.violations())
		}
	}
}

// TestVictimClientsResumeAfterAdoption kills the victim server inside
// the certify window: its certification signature has reached the
// peers (they retire the round) but it dies before retiring the round
// itself. On restart the victim must adopt the peer-certified output —
// and, critically, forward it to its own attached clients and answer
// their stale resubmissions with retained outputs so they ladder back
// to the live round within a few rounds of the restart. Those clients
// consume outputs strictly in round order; before these paths existed
// they wedged at the adopted round until the next epoch boundary's
// roster re-sync — a full epoch of hard-timeout rounds with the group
// limping at reduced participation. The assertions below therefore
// bound recovery to well inside the epoch.
func TestVictimClientsResumeAfterAdoption(t *testing.T) {
	const epoch = 12
	d := newDurableFixture(t, epoch)
	f := d.fixture

	f.h.StartAll()
	f.stepUntilRound(epoch+2, 2_000_000)
	vid := f.def.Servers[0].ID

	// Single-step into the certify window: stop the moment a peer has
	// retired a round the victim has not — the victim's cert signature
	// is out, so killing it now leaves a round only the peers completed.
	caught := false
	for i := 0; i < 2_000_000; i++ {
		if f.servers[1].Round() > f.servers[0].Round() ||
			f.servers[2].Round() > f.servers[0].Round() {
			caught = true
			break
		}
		if !f.h.Net.Step() {
			break
		}
	}
	if !caught {
		t.Fatal("never caught a peer ahead of the victim (certify window)")
	}
	killRound := f.servers[0].Round()
	d.kill(0)
	f.step(3000)

	d.restart(0)

	// The regression: clients homed on the victim must ladder back to
	// the live round and carry traffic again within a few rounds — NOT
	// only after the next epoch boundary's roster re-sync.
	f.clients[0].Send([]byte("from the victim's first client"))
	f.clients[3].Send([]byte("from the victim's second client"))
	f.stepUntilRound(killRound+5, 4_000_000)
	if r := f.servers[0].Round(); r >= killRound+epoch {
		t.Fatalf("rounds ran to %d (killed at %d): past the epoch boundary, the re-sync would mask the wedge", r, killRound)
	}

	// The kill point guarantees the adoption path ran (the peers retired
	// killRound without the victim); make sure the test keeps pinning it.
	adopted := false
	for _, e := range f.h.Events {
		if e.Node == vid && strings.Contains(e.Detail, "adopted") {
			adopted = true
			break
		}
	}
	if !adopted {
		t.Fatal("victim never adopted a peer-certified output")
	}

	for _, ci := range []int{0, 3} {
		if cr, sr := f.clients[ci].Round(), f.servers[0].Round(); cr < sr {
			t.Errorf("client %d still behind after restart: client round %d, server round %d", ci, cr, sr)
		}
	}
	want := map[string]bool{
		"from the victim's first client":  false,
		"from the victim's second client": false,
	}
	for _, d := range f.h.Deliveries {
		if _, ok := want[string(d.Data)]; ok {
			want[string(d.Data)] = true
		}
	}
	for msg, seen := range want {
		if !seen {
			t.Errorf("payload %q never delivered within %d rounds of the restart; violations: %v",
				msg, 5, f.violations())
		}
	}
}

// dropVersionClient wraps a client engine and swallows every original
// broadcast copy of the certified roster update for one specific
// version — the "client misses a non-empty roster update" fault the
// catch-up and divergence machinery exists for. Dropping stops once a
// later version is seen (the boundary has passed and the loss is
// irreversible), so a catch-up replay of the same version gets through
// like any real re-delivery would.
type dropVersionClient struct {
	*Client
	version  uint64
	dropped  *int
	sawLater bool
}

func (d *dropVersionClient) Handle(now time.Time, m *Message) (*Output, error) {
	if m.Type == MsgRosterUpdate && !d.sawLater {
		if w, err := DecodeRosterUpdateMsg(m.Body); err == nil {
			if u, err := group.DecodeRosterUpdate(w.Update); err == nil {
				if u.Version == d.version {
					*d.dropped++
					return &Output{}, nil
				}
				if u.Version > d.version {
					d.sawLater = true
				}
			}
		}
	}
	return d.Client.Handle(now, m)
}

// TestClientMissedRosterUpdateCatchUp makes one client miss every copy
// of a non-empty roster update (an expulsion — exactly the update whose
// loss used to leave the schedule replica silently diverged). The chain
// gap must be detected at the next update, and the catch-up probe must
// replay the missed update so the replica provably re-converges: same
// roster version, same slot count, and the client's traffic still
// decodes.
func TestClientMissedRosterUpdateCatchUp(t *testing.T) {
	const epoch = 4
	dropped := 0
	var f *fixture
	f = newFixture(t, 2, 3, fixtureOpts{
		mutatePolicy: func(p *group.Policy) {
			p.BeaconEpochRounds = epoch
			p.Alpha = 0.25
		},
		wrapClient: func(idx int, c *Client) Engine {
			if idx != 0 {
				return nil
			}
			return &dropVersionClient{Client: c, version: 1, dropped: &dropped}
		},
	})

	// Expel client 2 before the first boundary: version 1 is a pure
	// removal — non-empty, and it also reseeds the slot permutation, so
	// missing it is precisely the historical divergence wedge.
	f.h.StartAll()
	f.stepUntilRound(1, 1_000_000)
	if err := f.servers[0].Expel(f.clients[2].ID()); err != nil {
		t.Fatal(err)
	}

	// Run through two boundaries: v1's copies are all dropped at client
	// 0; v2 exposes the chain gap; the probe replays v1 and v2.
	f.stepUntilRound(3*epoch, 4_000_000)
	if dropped == 0 {
		t.Fatal("no version-1 roster update was ever dropped")
	}
	v := f.servers[0].RosterVersion()
	if v < 2 {
		t.Fatalf("roster version %d, want >= 2", v)
	}
	if got := f.clients[0].RosterVersion(); got != v {
		t.Fatalf("client replica stuck at version %d, servers at %d; violations: %v",
			got, v, f.violations())
	}
	if got, want := f.clients[0].sched.NumSlots(), f.servers[0].sched.NumSlots(); got != want {
		t.Fatalf("client schedule has %d slots after catch-up, servers have %d", got, want)
	}

	// The re-converged replica still composes decodable traffic.
	f.clients[0].Send([]byte("post catch-up"))
	f.stepUntilRound(f.servers[0].Round()+epoch, 2_000_000)
	found := false
	for _, d := range f.h.Deliveries {
		if string(d.Data) == "post catch-up" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("post-catch-up payload never delivered; violations: %v", f.violations())
	}
}

// TestClientResyncsFromSnapshotAfterTruncation is the catch-up wedge
// regression: the client misses a non-empty update AND every server's
// in-memory roster log has lost that version (no durable store), so the
// replay path genuinely cannot serve it. Instead of wedging forever in
// the probe loop, the server must fall back to a certified snapshot
// sync, and the client must adopt it and re-converge.
func TestClientResyncsFromSnapshotAfterTruncation(t *testing.T) {
	const epoch = 4
	dropped := 0
	f := newFixture(t, 2, 3, fixtureOpts{
		mutatePolicy: func(p *group.Policy) {
			p.BeaconEpochRounds = epoch
			p.Alpha = 0.25
		},
		wrapClient: func(idx int, c *Client) Engine {
			if idx != 0 {
				return nil
			}
			return &dropVersionClient{Client: c, version: 1, dropped: &dropped}
		},
	})

	f.h.StartAll()
	f.stepUntilRound(1, 1_000_000)
	if err := f.servers[0].Expel(f.clients[2].ID()); err != nil {
		t.Fatal(err)
	}

	// Let version 1 certify and apply on the servers (dropped at client
	// 0), then truncate it from every server's in-memory log before the
	// client's catch-up probe can request a replay.
	f.stepUntilRound(epoch+1, 2_000_000)
	if dropped == 0 {
		t.Fatal("no version-1 roster update was ever dropped")
	}
	for _, s := range f.servers {
		if s.rosterLog[1] == nil {
			t.Fatalf("server %d has no version-1 update to truncate", s.Index())
		}
		delete(s.rosterLog, 1)
	}

	f.stepUntilRound(3*epoch, 4_000_000)
	resynced := f.h.FirstEvent(f.clients[0].ID(), EventReplicaResynced)
	if resynced == nil {
		t.Fatalf("client never resynced from a snapshot; violations: %v", f.violations())
	}
	v := f.servers[0].RosterVersion()
	if got := f.clients[0].RosterVersion(); got != v {
		t.Fatalf("client replica at version %d after resync, servers at %d", got, v)
	}

	f.clients[0].Send([]byte("post resync"))
	f.stepUntilRound(f.servers[0].Round()+epoch, 2_000_000)
	found := false
	for _, d := range f.h.Deliveries {
		if string(d.Data) == "post resync" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("post-resync payload never delivered; violations: %v", f.violations())
	}
}
