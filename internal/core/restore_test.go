package core

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dissent/internal/beacon"
	"dissent/internal/crypto"
	"dissent/internal/group"
	"dissent/internal/store"
	"dissent/internal/wire"
)

// blackholeEngine swallows everything addressed to a killed node.
type blackholeEngine struct{}

func (blackholeEngine) Start(time.Time) (*Output, error)                  { return &Output{}, nil }
func (blackholeEngine) Handle(time.Time, *Message) (*Output, error)       { return &Output{}, nil }
func (blackholeEngine) Check(m *Message) Checked                          { return Checked{Msg: m} }
func (blackholeEngine) HandleChecked(time.Time, Checked) (*Output, error) { return &Output{}, nil }
func (blackholeEngine) Tick(time.Time) (*Output, error)                   { return &Output{}, nil }

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
		Group:     [32]byte{0xAB, 1},
		Version:   7,
		PrevCount: 9,
		RosterDue: 1,
		BlameDue:  1,
		BlameHold: 124,
		CertKeys:  [][]byte{{1, 2}, {3}},
		CertSigs:  [][]byte{{4}, {5, 6}},
		SlotKeys:  [][]byte{{7}, {8}, {9}},
		Sched:     []byte{0, 0, 0, 0, 0, 0, 0, 122, 0, 0, 0, 0},
		Expelled:  []Expulsion{{Client: 4, Round: 100}},

		BlameSession: 5,
		Restarts:     2,
	}
	got := new(ServerSnapshot)
	if err := wire.DecodeRecord(wire.EncodeRecord(sn), got); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", sn) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, sn)
	}
}

// TestRestoreRefusesOtherGroupsSnapshot opens group A's store in a
// server of group B: the restore must refuse it, naming both groups,
// rather than resume A's schedule, slot keys and beacon chain.
func TestRestoreRefusesOtherGroupsSnapshot(t *testing.T) {
	d := newDurableFixture(t, 4)
	d.h.StartAll()
	d.stepUntilRound(3, 2_000_000)
	d.kill(0)
	kv := d.openKV(0)
	defer kv.Close()

	b := newFixture(t, 3, 4, fixtureOpts{})
	opts := Options{MessageGroup: crypto.ModP512Test(), StateStore: kv}
	bs, err := beacon.NewKVStore(kv, "beacon")
	if err != nil {
		t.Fatal(err)
	}
	opts.BeaconStore = bs
	srv, err := NewServer(b.def, b.kpByID[b.def.Servers[0].ID], b.msgKPByIdx[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	_, ok, err := srv.RestoreFromStore(b.h.Net.Now())
	if err == nil || ok {
		t.Fatalf("group B restored group A's snapshot (ok=%v, head %d)", ok, srv.Round())
	}
	a, g := d.def.GroupID(), b.def.GroupID()
	for _, want := range []string{fmt.Sprintf("%x", a), fmt.Sprintf("%x", g)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not name group %s", err, want)
		}
	}
}

// parentSnapshot is the snapshot layout stores were written in before
// records carried a format byte and a group ID: no leading byte, and the
// exclusions as parallel index and round lists.
type parentSnapshot struct {
	ServerSnapshot
	expelIdx []int32
	expelAt  []uint64
}

func (p *parentSnapshot) Fields(c *wire.Codec) {
	c.U64(&p.Version)
	c.U32(&p.PrevCount)
	c.U8(&p.RosterDue)
	c.U8(&p.BlameDue)
	c.U64(&p.BlameHold)
	c.ByteSlices(&p.CertKeys)
	c.ByteSlices(&p.CertSigs)
	c.ByteSlices(&p.SlotKeys)
	c.Bytes(&p.Sched)
	c.Int32s(&p.expelIdx)
	wire.List(c, &p.expelAt, 1<<20, 8, (*wire.Codec).U64)
	c.I32(&p.BlameSession)
	c.U32(&p.Restarts)
}

// TestRestoreRefusesOlderRecordLayout: a snapshot in the layout written
// before the record format byte (its first byte is the roster version's
// top byte, 0x00) is refused by name, not misparsed.
func TestRestoreRefusesOlderRecordLayout(t *testing.T) {
	d := newDurableFixture(t, 4)
	d.h.StartAll()
	d.stepUntilRound(3, 2_000_000)
	d.kill(0)
	kv := d.openKV(0)
	raw, ok := kv.Get(bucketSnapshot, snapshotKey)
	if !ok {
		t.Fatal("no snapshot in server 0's store")
	}
	var old parentSnapshot
	if err := wire.DecodeRecord(raw, &old.ServerSnapshot); err != nil {
		t.Fatal(err)
	}
	if err := kv.Put(bucketSnapshot, snapshotKey, wire.Encode(&old)); err != nil {
		t.Fatal(err)
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	kv = d.openKV(0)
	defer kv.Close()
	opts := Options{MessageGroup: crypto.ModP512Test(), StateStore: kv}
	srv, err := NewServer(d.def, d.kpByID[d.def.Servers[0].ID], d.msgKPByIdx[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	_, ok, err = srv.RestoreFromStore(d.h.Net.Now())
	if err == nil || ok {
		t.Fatalf("a snapshot in the older layout restored (ok=%v, head %d)", ok, srv.Round())
	}
	for _, want := range []string{"format 0x00", "format 0x01"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not name %s", err, want)
		}
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

	// The restarted server's chain — reloaded from its store, rebound
	// to the restored session genesis, extended since — is the group's:
	// it verifies, and at an equal round it matches a peer's.
	peer := f.servers[1]
	for i := 0; i < 100_000 && peer.Round() != restored.Round(); i++ {
		f.h.Net.Step()
	}
	if peer.Round() != restored.Round() {
		t.Fatalf("restarted server at round %d never met its peer at %d", restored.Round(), peer.Round())
	}
	chain, peerChain := restored.BeaconChain(), peer.BeaconChain()
	if err := chain.Verify(); err != nil {
		t.Fatalf("restarted server's beacon chain fails verification: %v", err)
	}
	if chain.Len() == 0 || chain.Head() != peerChain.Head() || chain.Len() != peerChain.Len() {
		t.Fatalf("restarted server's beacon chain (%d entries, head %x) differs from its peer's (%d entries, head %x)",
			chain.Len(), chain.Head(), peerChain.Len(), peerChain.Head())
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
			if rs.attempt > maxAttempts && rs.commit.has(0) {
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

// TestTwoServersRestartInOneRound: server 1 restarts and reopens its
// in-flight round at a recovery attempt; server 0 escalates to that
// attempt, casts its inventory for it, then itself crashes and restarts.
// Its restore must reopen the round strictly above the attempt it had
// joined — the attempt is recorded in its store before its inventory
// goes out — or it casts a second inventory for the same attempt, the
// peers keep the first, and every Certify fails. The round certifies
// within 100,000 events and a second of virtual time of the second
// restart, and no server is charged but for the silence of its crash.
// A peer's inventory at attempt MaxInt32 then leaves server 0's attempt
// and stored restart count as they were.
func TestTwoServersRestartInOneRound(t *testing.T) {
	const epoch = 12
	d := newDurableFixture(t, epoch)
	f := d.fixture
	f.h.StartAll()
	f.stepUntilRound(3, 2_000_000)
	d.kill(1)
	f.step(3000)
	d.restart(1)

	s0 := f.servers[0]
	var round uint64
	caught := false
	for i := 0; i < 200_000 && !caught && f.h.Net.Step(); i++ {
		for _, rs := range s0.rounds {
			if rs.attempt > maxAttempts && rs.inv.has(s0.idx) {
				round, caught = rs.r, true
			}
		}
	}
	if !caught {
		t.Fatal("server 0 never cast an inventory for server 1's recovery attempt")
	}
	d.kill(0)
	f.step(3000)
	d.restart(0)

	restarted := f.h.Net.Now()
	f.stepUntilRound(round, 100_000)
	for _, s := range f.servers {
		if s.Round() <= round {
			t.Fatalf("server %d stuck at round %d after both restarts; violations: %v",
				s.Index(), s.Round(), f.violations())
		}
	}
	if took := f.h.Net.Now().Sub(restarted); took > time.Second {
		t.Errorf("round %d certified %v after server 0 restarted; want within 1s", round, took)
	}

	// A peer's inventory at an attempt no restore could reopen above
	// (maxAttempts + restarts would overflow) is ignored, and nothing of
	// it reaches the store: server 0 restores once more to the next
	// restart count, and the group certifies on.
	s0 = f.servers[0]
	head, restarts := s0.head(), s0.restarts
	rs := s0.rounds[head]
	if rs == nil {
		t.Fatalf("server 0 has no open round %d", head)
	}
	attempt := rs.attempt
	huge, err := f.servers[1].sign(MsgInventory, head, wire.Encode(&Inventory{Attempt: math.MaxInt32}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s0.Handle(f.h.Net.Now(), huge); err != nil {
		t.Fatal(err)
	}
	if s0.restarts != restarts || rs.attempt != attempt {
		t.Fatalf("inventory at attempt MaxInt32: restarts %d -> %d, round %d attempt %d -> %d",
			restarts, s0.restarts, head, attempt, rs.attempt)
	}
	d.kill(0)
	f.step(3000)
	if s0 = d.restart(0); s0.restarts != restarts+1 {
		t.Fatalf("restored with restart count %d, want %d", s0.restarts, restarts+1)
	}
	f.stepUntilRound(head+1, 100_000)
	for _, s := range f.servers {
		if s.Round() <= head+1 {
			t.Fatalf("server %d stuck at round %d after the third restart; violations: %v",
				s.Index(), s.Round(), f.violations())
		}
	}
	// Each server is charged for withholding while it is down; nothing
	// else is charged.
	for _, e := range f.h.EventsOf(EventMisbehavior) {
		if !strings.HasPrefix(e.Detail, "withholding:") {
			t.Errorf("%s charged %s in round %d: %s", e.Node, e.Culprit, e.Round, e.Detail)
		}
	}
}

// TestRosterRestartReservesProposal: a server that restarts in the
// middle of a roster phase — its proposal, carrying churn, already at a
// peer, the peers' proposals not all in — re-sends the same proposal
// from its store. Peers keep the first proposal they receive, so a
// rebuilt one (pending churn is not persisted) would make the two sides
// certify different updates and every roster certificate fail. Expelling
// a server's only client leaves that server no submission to wait for:
// it must close each later window as it opens, so the rounds after the
// update keep the group's pace and no server is charged with withholding.
func TestRosterRestartReservesProposal(t *testing.T) {
	const epoch = 6
	for _, churn := range []string{"expel", "expel-sole-client", "join"} {
		t.Run(churn, func(t *testing.T) {
			d := newDurableFixture(t, epoch)
			f := d.fixture
			var joiner *Client
			if churn == "join" {
				kp, _ := crypto.GenerateKeyPair(crypto.P256(), nil)
				var err error
				if joiner, err = NewJoinerClient(f.def, kp, "", Options{MessageGroup: crypto.ModP512Test()}); err != nil {
					t.Fatal(err)
				}
				f.h.AddNode(joiner.ID(), joiner, 0)
				f.servers[0].Admit(crypto.P256().Encode(kp.Public))
			}
			s2 := d.def.Servers[2].ID
			hold := true // server 2's proposal reaches no one until the restart
			f.h.Outbound = func(from group.NodeID, m *Message) (time.Duration, bool) {
				return 0, hold && from == s2 && m.Type == MsgRosterPropose
			}
			f.h.StartAll()
			f.stepUntilRound(1, 2_000_000)
			// Client 3 shares server 0 with client 0; client 1 is server 1's
			// only client, which leaves server 1 with no one to wait for.
			expelled := f.clients[3].ID()
			if churn == "expel-sole-client" {
				expelled = f.clients[1].ID()
			}
			if churn != "join" {
				if err := f.servers[0].Expel(expelled); err != nil {
					t.Fatal(err)
				}
			}
			peerHolds := func() bool { r := f.servers[1].roster; return r != nil && r.prop.has(0) }
			for i := 0; i < 2_000_000 && !peerHolds(); i++ {
				if !f.h.Net.Step() {
					break
				}
			}
			if !peerHolds() || f.servers[0].roster.prop.full() {
				t.Fatal("never reached a roster phase with server 0's proposal at a peer and its own exchange open")
			}
			d.kill(0)
			f.step(3000)
			hold = false
			d.restart(0)

			f.stepUntilRound(epoch+2, 1_000_000)
			for _, s := range f.servers {
				if s.Round() <= epoch+2 || s.RosterVersion() != 1 {
					v := f.violations()
					t.Fatalf("server %d at round %d, roster version %d after the restart; %d violations, first: %v",
						s.Index(), s.Round(), s.RosterVersion(), len(v), v[:min(len(v), 1)])
				}
				switch ci := s.def.ClientIndex(expelled); {
				case churn != "join" && !s.def.Clients[ci].Expelled:
					t.Fatalf("server %d applied an update without the Expel", s.Index())
				case churn == "join" && s.def.ClientIndex(joiner.ID()) < 0:
					t.Fatalf("server %d applied an update without the joiner", s.Index())
				}
			}
			if joiner != nil && !joiner.Ready() {
				t.Fatal("the admitted joiner was never welcomed")
			}
			for _, ev := range f.h.EventsOf(EventMisbehavior) {
				if f.def.ServerIndex(ev.Culprit) >= 0 {
					t.Fatalf("honest server charged: %+v", ev)
				}
			}
			// The rounds after the update certify at the fixture's pace, not
			// at the hard timeout of a server waiting on no one.
			var first, last time.Time
			for _, e := range f.h.EventsOf(EventRoundComplete) {
				switch {
				case e.Round == epoch && first.IsZero():
					first = e.At
				case e.Round == epoch+2 && e.At.After(last):
					last = e.At
				}
			}
			if took := last.Sub(first); first.IsZero() || took > time.Second {
				t.Fatalf("rounds %d to %d certified over %v; a few milliseconds each is the fixture's pace", epoch, epoch+2, took)
			}
		})
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
		if w, err := decode[RosterUpdateMsg](m.Body); err == nil {
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
