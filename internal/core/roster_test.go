package core

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
	"time"

	"dissent/internal/crypto"
	"dissent/internal/dcnet"
	"dissent/internal/group"
	"dissent/internal/wire"
)

// stepUntilRound continues driving an already-started harness until
// every server passes the round (or the event budget runs out).
func (f *fixture) stepUntilRound(round uint64, maxEvents int64) {
	f.t.Helper()
	var steps int64
	for steps < maxEvents {
		done := true
		for _, s := range f.servers {
			if s.Round() <= round {
				done = false
				break
			}
		}
		if done {
			break
		}
		if !f.h.Net.Step() {
			break
		}
		steps++
	}
	for _, err := range f.h.Errors {
		f.t.Errorf("harness error: %v", err)
	}
	f.h.Errors = nil
}

// requestRejoin injects a client's rejoin request at current virtual
// time.
func (f *fixture) requestRejoin(c *Client) {
	f.t.Helper()
	now := f.h.Net.Now()
	out, err := c.RequestRejoin(now)
	f.h.ProcessExternal(c.ID(), now, out, err)
}

// stoppableDisruptor flips bits in a victim's slot (the §3.9 adversary)
// until its own expulsion, then behaves honestly — so a re-admission
// sticks.
type stoppableDisruptor struct {
	*Client
	victim *Client
}

func (d *stoppableDisruptor) Start(now time.Time) (*Output, error) {
	out, err := d.Client.Start(now)
	return d.mangle(out), err
}

func (d *stoppableDisruptor) Handle(now time.Time, m *Message) (*Output, error) {
	out, err := d.Client.Handle(now, m)
	return d.mangle(out), err
}

func (d *stoppableDisruptor) mangle(out *Output) *Output {
	if out == nil || d.victim.Slot() < 0 || !d.Client.ready || d.Client.expelled {
		return out
	}
	off, n := headLayout(&d.Client.node).SlotRange(d.victim.Slot())
	if n == 0 {
		return out
	}
	for i, env := range out.Send {
		if env.Msg.Type != MsgClientSubmit {
			continue
		}
		sub, err := DecodeClientSubmit(env.Msg.Body)
		if err != nil {
			continue
		}
		ct := append([]byte(nil), sub.CT...)
		target := off + dcnet.SeedLen + 12
		if target >= off+n {
			target = off + n - 1
		}
		ct[target] ^= 0xFF
		msg, err := d.Client.sign(MsgClientSubmit, env.Msg.Round, wire.Encode(&ClientSubmit{CT: ct}))
		if err != nil {
			continue
		}
		out.Send[i] = Envelope{To: env.To, Msg: msg}
	}
	return out
}

// TestChurnStateMachine drives the expel → cooldown → rejoin → re-admit
// state machine end to end over the harness, table-driven across
// expulsion modes (operator Expel vs blame verdict) and cooldowns.
func TestChurnStateMachine(t *testing.T) {
	const epoch = 4
	cases := []struct {
		name     string
		cooldown int
		viaBlame bool
		// runTo is how far to drive before asserting re-admission.
		runTo uint64
	}{
		{name: "api-expel-immediate-cooldown", cooldown: 0, runTo: 14},
		{name: "api-expel-cooldown-gates-boundary", cooldown: 6, runTo: 18},
		{name: "blame-expel-then-rejoin", cooldown: 0, viaBlame: true, runTo: 26},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, 2, 4, fixtureOpts{
				mutatePolicy: func(p *group.Policy) {
					p.BeaconEpochRounds = epoch
					p.ReadmitCooldownRounds = tc.cooldown
					p.Alpha = 0.5
					p.WindowThreshold = 0.6
				},
			})
			culpritIdx := 3
			culprit := f.clients[culpritIdx]
			if tc.viaBlame {
				d := &stoppableDisruptor{Client: culprit, victim: f.clients[0]}
				f.h.AddNode(culprit.ID(), d, 0)
				f.clients[0].Send(bytes.Repeat([]byte("victim speech "), 20))
			}

			f.h.StartAll()
			f.stepUntilRound(1, 500_000)
			if !tc.viaBlame {
				// Operator policy: expel on one server only; the proposal
				// exchange spreads it.
				if err := f.servers[0].Expel(culprit.ID()); err != nil {
					t.Fatal(err)
				}
				// Before the boundary nothing changes anywhere.
				if f.servers[1].Excluded(culpritIdx) || culprit.Expelled() {
					t.Fatal("expulsion leaked before the epoch boundary")
				}
			}

			// Drive until the expulsion lands (boundary for API expel,
			// verdict + boundary for blame).
			expelledAt := uint64(0)
			budget := int64(3_000_000)
			for f.servers[0].Round() < tc.runTo && !f.servers[0].Excluded(culpritIdx) {
				if !f.h.Net.Step() || budget == 0 {
					break
				}
				budget--
			}
			f.stepUntilRound(f.servers[0].Round(), 100_000) // settle in-flight traffic
			for _, s := range f.servers {
				if !s.Excluded(culpritIdx) {
					t.Fatalf("server %d did not exclude the culprit; violations: %v",
						s.Index(), f.violations())
				}
			}
			expelledAt = f.servers[0].Round()

			// The expelled client stops submitting but keeps its replicas
			// advancing; all roster versions agree after the boundary.
			if !culprit.Expelled() {
				// A blame verdict reaches the client via MsgBlameDone, an
				// API expulsion via MsgRosterUpdate; give in-flight
				// messages a moment.
				f.stepUntilRound(expelledAt+1, 400_000)
			}
			if !culprit.Expelled() {
				t.Fatal("culprit engine does not consider itself expelled")
			}

			// Rejoin: request now; admission waits for cooldown + boundary.
			f.requestRejoin(culprit)
			f.stepUntilRound(tc.runTo, 3_000_000)

			for _, s := range f.servers {
				if s.Excluded(culpritIdx) {
					t.Fatalf("server %d still excludes the culprit at round %d (version %d)",
						s.Index(), s.Round(), s.RosterVersion())
				}
				if s.Definition().Clients[culpritIdx].Expelled {
					t.Fatalf("roster flag still expelled at server %d", s.Index())
				}
			}
			if culprit.Expelled() {
				t.Fatal("culprit engine still expelled after re-admission")
			}

			// Cooldown actually gated the earliest re-admission boundary.
			joined := f.h.EventsOf(EventMemberJoined)
			var joinRound uint64
			for _, e := range joined {
				if e.Culprit == culprit.ID() && f.def.ServerIndex(e.Node) >= 0 {
					joinRound = e.Round
					break
				}
			}
			if joinRound == 0 {
				t.Fatalf("no member-joined event for the culprit; events: %v", joined)
			}
			if joinRound%epoch != 0 {
				t.Fatalf("re-admission at round %d, not an epoch boundary", joinRound)
			}
			var expelEvent uint64
			for _, e := range f.h.EventsOf(EventMemberExpelled) {
				if e.Culprit == culprit.ID() && f.def.ServerIndex(e.Node) >= 0 {
					expelEvent = e.Round
					break
				}
			}
			if tc.cooldown > 0 && joinRound < expelEvent+uint64(tc.cooldown) {
				t.Fatalf("re-admitted at round %d, before cooldown %d from expulsion at %d",
					joinRound, tc.cooldown, expelEvent)
			}

			// Roster versions advanced monotonically and agree everywhere.
			v := f.servers[0].RosterVersion()
			if v == 0 {
				t.Fatal("roster version never advanced")
			}
			for _, s := range f.servers[1:] {
				if s.RosterVersion() != v {
					t.Fatalf("server versions diverge: %d vs %d", s.RosterVersion(), v)
				}
			}

			// The re-admitted client communicates again.
			culprit.Send([]byte("back in the group"))
			f.stepUntilRound(f.servers[0].Round()+2*epoch, 2_000_000)
			found := false
			for _, d := range f.h.Deliveries {
				if string(d.Data) == "back in the group" {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("re-admitted client's message never delivered; violations: %v", f.violations())
			}
		})
	}
}

// TestJoinerAdmittedMidSession admits a brand-new member into a live
// session: allowlisted on its contact server, proposed at the next
// boundary, bootstrapped from the upstream server's welcome snapshot,
// and anonymously communicating afterwards.
func TestJoinerAdmittedMidSession(t *testing.T) {
	const epoch = 4
	f := newFixture(t, 2, 3, fixtureOpts{
		mutatePolicy: func(p *group.Policy) {
			p.BeaconEpochRounds = epoch
			p.Alpha = 0.5
		},
	})
	keyGrp := crypto.P256()
	joinKP, _ := crypto.GenerateKeyPair(keyGrp, nil)
	joiner, err := NewJoinerClient(f.def, joinKP, "", Options{MessageGroup: crypto.ModP512Test()})
	if err != nil {
		t.Fatal(err)
	}
	f.h.AddNode(joiner.ID(), joiner, 0)

	// Closed admission: the contact server (definition server 0) must
	// pre-approve the key.
	contact := f.servers[0]
	contact.Admit(keyGrp.Encode(joinKP.Public))

	f.h.StartAll()
	f.stepUntilRound(3*epoch, 3_000_000)

	if !joiner.Ready() {
		t.Fatalf("joiner not bootstrapped after %d rounds; violations: %v", 3*epoch, f.violations())
	}
	ji := f.servers[0].Definition().ClientIndex(joiner.ID())
	if ji < 0 {
		t.Fatal("joiner missing from the server roster")
	}
	for _, s := range f.servers {
		if s.RosterVersion() == 0 {
			t.Fatalf("server %d roster version never advanced", s.Index())
		}
		if s.Definition().ClientIndex(joiner.ID()) != ji {
			t.Fatalf("joiner index inconsistent across servers")
		}
	}
	for _, c := range f.clients {
		if c.Definition().ClientIndex(joiner.ID()) != ji {
			t.Fatalf("client %d roster replica lacks the joiner", c.Index())
		}
	}

	// The joiner's slot works: send and observe delivery everywhere.
	joiner.Send([]byte("hello from the joiner"))
	f.stepUntilRound(f.servers[0].Round()+2*epoch, 2_000_000)
	found := false
	for _, d := range f.h.Deliveries {
		if string(d.Data) == "hello from the joiner" {
			if d.Slot != joiner.Slot() {
				t.Fatalf("joiner delivery in slot %d, want %d", d.Slot, joiner.Slot())
			}
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("joiner message never delivered; violations: %v", f.violations())
	}

	// Existing clients' schedules grew in lockstep.
	if got := f.servers[0].sched.NumSlots(); got != 4 {
		t.Fatalf("server schedule has %d slots, want 4", got)
	}
	for _, c := range f.clients {
		if got := c.sched.NumSlots(); got != 4 {
			t.Fatalf("client %d schedule has %d slots, want 4", c.Index(), got)
		}
	}
}

// TestJoinerRecoversFromLostWelcome drops the joiner's first
// welcome frame: the joiner's retry loop must obtain a fresh
// welcome (served by whichever server the retry reaches — here the
// contact server, which is NOT the joiner's assigned upstream, since
// the new member's index is 3 and 3 mod 2 = server 1) and bootstrap
// anyway.
func TestJoinerRecoversFromLostWelcome(t *testing.T) {
	const epoch = 4
	f := newFixture(t, 2, 3, fixtureOpts{
		mutatePolicy: func(p *group.Policy) {
			p.BeaconEpochRounds = epoch
			p.Alpha = 0.5
			p.OpenAdmission = true
		},
	})
	keyGrp := crypto.P256()
	joinKP, _ := crypto.GenerateKeyPair(keyGrp, nil)
	joiner, err := NewJoinerClient(f.def, joinKP, "", Options{MessageGroup: crypto.ModP512Test()})
	if err != nil {
		t.Fatal(err)
	}
	f.h.AddNode(joiner.ID(), joiner, 0)

	dropped := 0
	f.h.Outbound = func(from group.NodeID, m *Message) (time.Duration, bool) {
		if m.Type == MsgSnapshot && dropped == 0 {
			dropped++
			return 0, true
		}
		return 0, false
	}

	f.h.StartAll()
	f.stepUntilRound(4*epoch, 4_000_000)
	if dropped == 0 {
		t.Fatal("no welcome was ever sent (admission never happened)")
	}
	if !joiner.Ready() {
		t.Fatalf("joiner did not recover from the lost welcome; violations: %v", f.violations())
	}
	joiner.Send([]byte("recovered joiner"))
	f.stepUntilRound(f.servers[0].Round()+2*epoch, 2_000_000)
	found := false
	for _, d := range f.h.Deliveries {
		if string(d.Data) == "recovered joiner" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("recovered joiner's message never delivered; violations: %v", f.violations())
	}
}

// TestRosterPhaseRecoversFromLostCert drops one server's roster
// certificate to a peer at a boundary: the stuck peer's rosterTick
// rebroadcast must trigger a certified-update replay from the
// completed server, unwedging the whole session.
func TestRosterPhaseRecoversFromLostCert(t *testing.T) {
	const epoch = 3
	f := newFixture(t, 2, 3, fixtureOpts{
		mutatePolicy: func(p *group.Policy) { p.BeaconEpochRounds = epoch },
	})
	// Drop the first MsgRosterCert from server 0 to server 1: server 0
	// still completes (it gets server 1's cert), server 1 wedges until
	// the replay path kicks in.
	srv0 := f.servers[0].ID()
	srv1 := f.servers[1].ID()
	dropped := 0
	f.h.Outbound = func(from group.NodeID, m *Message) (time.Duration, bool) {
		if m.Type == MsgRosterCert && from == srv0 && dropped == 0 {
			dropped++
			return 0, true
		}
		return 0, false
	}
	// The dropped cert is addressed to server 1 only in a 2-server
	// group, so the scenario is exact.
	_ = srv1

	f.h.StartAll()
	f.stepUntilRound(3*epoch, 4_000_000)
	if dropped == 0 {
		t.Fatal("no roster certificate was ever dropped (no boundary reached)")
	}
	for _, s := range f.servers {
		if s.Round() <= 3*epoch {
			t.Fatalf("server %d stuck at round %d after a lost roster cert; violations: %v",
				s.Index(), s.Round(), f.violations())
		}
	}
	v := f.servers[0].RosterVersion()
	if v == 0 || f.servers[1].RosterVersion() != v {
		t.Fatalf("versions diverged after recovery: %d vs %d", v, f.servers[1].RosterVersion())
	}
}

// TestStaleRosterVersionMessagesRejected feeds stale-version roster
// traffic to live engines and asserts each is rejected as a protocol
// violation without corrupting state. Each forged message is signed
// with its claimed sender's key, so every row runs the signed path.
func TestStaleRosterVersionMessagesRejected(t *testing.T) {
	const epoch = 3
	f := newFixture(t, 2, 3, fixtureOpts{
		mutatePolicy: func(p *group.Policy) { p.BeaconEpochRounds = epoch },
	})
	f.h.StartAll()
	f.stepUntilRound(2*epoch, 2_000_000) // at least two boundaries: version >= 2
	now := f.h.Net.Now()
	srv := f.servers[0]
	cl := f.clients[0]
	peer := &f.servers[1].node
	upstream := &f.servers[cl.def.UpstreamServer(cl.Index())].node
	if srv.RosterVersion() < 2 {
		t.Fatalf("roster version %d after two boundaries", srv.RosterVersion())
	}

	// forge builds a message from the engine n, signed with its key.
	forge := func(n *node, typ MsgType, round uint64, body []byte) *Message {
		t.Helper()
		m, err := n.sign(typ, round, body)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	countViolations := func(out *Output) int {
		n := 0
		for _, e := range out.Events {
			if e.Kind == EventProtocolViolation {
				n++
			}
		}
		return n
	}

	countReplays := func(out *Output) int {
		n := 0
		for _, env := range out.Send {
			if env.Msg.Type == MsgRosterUpdate {
				n++
			}
		}
		return n
	}

	t.Run("stale propose at server", func(t *testing.T) {
		// A stale proposal is never processed as a proposal (the version
		// it targets is already certified); the peer gets the certified
		// chain replayed so it can recover.
		before := srv.RosterVersion()
		stale := &RosterPropose{Version: before} // must be current+1
		out, err := srv.Handle(now, forge(peer, MsgRosterPropose, srv.Round(), wire.Encode(stale)))
		if err != nil {
			t.Fatal(err)
		}
		if srv.RosterVersion() != before || srv.roster != nil {
			t.Fatal("stale proposal mutated roster state")
		}
		if countReplays(out) == 0 {
			t.Fatal("stale proposal got no catch-up replay")
		}
	})

	t.Run("stale cert at server", func(t *testing.T) {
		before := srv.RosterVersion()
		stale := &RosterCert{Version: before - 1, Sig: []byte("sig")}
		out, err := srv.Handle(now, forge(peer, MsgRosterCert, srv.Round(), wire.Encode(stale)))
		if err != nil {
			t.Fatal(err)
		}
		if srv.RosterVersion() != before || srv.roster != nil {
			t.Fatal("stale certificate mutated roster state")
		}
		if countReplays(out) == 0 {
			t.Fatal("stale certificate got no catch-up replay")
		}
	})

	t.Run("stale replayed update at server", func(t *testing.T) {
		before := srv.RosterVersion()
		staleUpdate := srv.rosterLog[before-1]
		if staleUpdate == nil {
			t.Fatal("no logged update to replay")
		}
		out, err := srv.Handle(now, forge(peer, MsgRosterUpdate, srv.Round(),
			wire.Encode(&RosterUpdateMsg{Update: wire.Encode(staleUpdate)})))
		if err != nil {
			t.Fatal(err)
		}
		if srv.RosterVersion() != before {
			t.Fatal("stale replayed update changed the version")
		}
		if len(out.Send) != 0 {
			t.Fatal("stale replayed update triggered traffic")
		}
	})

	t.Run("stale update at client", func(t *testing.T) {
		// A replayed old version is dropped silently (it races the slow
		// original on the catch-up path); only the version is pinned.
		beforeVer := cl.RosterVersion()
		stale := &group.RosterUpdate{Version: beforeVer}
		_, err := cl.Handle(now, forge(upstream, MsgRosterUpdate, cl.Round(),
			wire.Encode(&RosterUpdateMsg{Update: wire.Encode(stale)})))
		if err != nil {
			t.Fatal(err)
		}
		if cl.RosterVersion() != beforeVer {
			t.Fatal("stale update changed the client's roster version")
		}
	})

	t.Run("chain-gap update at client", func(t *testing.T) {
		// A version we cannot chain to (we missed an intermediate) is a
		// rejection the application should see.
		beforeVer := cl.RosterVersion()
		gap := &group.RosterUpdate{Version: beforeVer + 3}
		out, err := cl.Handle(now, forge(upstream, MsgRosterUpdate, cl.Round(),
			wire.Encode(&RosterUpdateMsg{Update: wire.Encode(gap)})))
		if err != nil {
			t.Fatal(err)
		}
		if countViolations(out) == 0 {
			t.Fatal("chain-gap roster update accepted silently")
		}
		if cl.RosterVersion() != beforeVer {
			t.Fatal("chain-gap update changed the client's roster version")
		}
	})

	t.Run("version-behind member gets catch-up replay", func(t *testing.T) {
		// An active member that lost a roster update probes with its old
		// version; besides the stale-version violation, the server must
		// replay the missed certified updates so the member can unwedge.
		stale := &JoinRequest{Version: srv.RosterVersion() - 2}
		out, err := srv.Handle(now, forge(&f.clients[1].node, MsgJoinRequest, srv.Round(), wire.Encode(stale)))
		if err != nil {
			t.Fatal(err)
		}
		replayed := 0
		for _, env := range out.Send {
			if env.Msg.Type == MsgRosterUpdate && env.To == f.clients[1].ID() {
				wrap, err := decode[RosterUpdateMsg](env.Msg.Body)
				if err != nil {
					t.Fatal(err)
				}
				u, err := group.DecodeRosterUpdate(wrap.Update)
				if err != nil {
					t.Fatal(err)
				}
				if want := stale.Version + 1 + uint64(replayed); u.Version != want {
					t.Fatalf("replayed version %d, want %d (chain order)", u.Version, want)
				}
				replayed++
			}
		}
		if replayed != 2 {
			t.Fatalf("replayed %d updates, want 2", replayed)
		}
	})

	t.Run("stale rejoin request at server", func(t *testing.T) {
		// Forge an expelled state for client 2, then send a rejoin with an
		// old version number: the intent is rejected (not queued) and the
		// member is replayed the missed chain so a retry can land current.
		ci := 2
		srv.expelRound[ci] = srv.Round()
		defer delete(srv.expelRound, ci)
		stale := &JoinRequest{Version: srv.RosterVersion() - 1, Rejoin: true}
		out, err := srv.Handle(now, forge(&f.clients[ci].node, MsgJoinRequest, srv.Round(), wire.Encode(stale)))
		if err != nil {
			t.Fatal(err)
		}
		if srv.pendingRejoin[ci] {
			t.Fatal("stale rejoin request queued")
		}
		replayed := false
		for _, env := range out.Send {
			if env.Msg.Type == MsgRosterUpdate {
				replayed = true
			}
		}
		if !replayed {
			t.Fatal("stale rejoin got no catch-up replay")
		}
	})

	t.Run("future-version join request at server", func(t *testing.T) {
		future := &JoinRequest{Version: srv.RosterVersion() + 3, Rejoin: true}
		out, err := srv.Handle(now, forge(&f.clients[1].node, MsgJoinRequest, srv.Round(), wire.Encode(future)))
		if err != nil {
			t.Fatal(err)
		}
		if countViolations(out) == 0 {
			t.Fatal("future-version join request accepted silently")
		}
	})
}

// TestEmptyBoundariesStillAdvanceVersion pins the always-certify
// behavior: every epoch boundary produces a certified (possibly empty)
// update, so versions count boundaries and stale traffic is always
// detectable.
func TestEmptyBoundariesStillAdvanceVersion(t *testing.T) {
	const epoch = 3
	f := newFixture(t, 2, 2, fixtureOpts{
		mutatePolicy: func(p *group.Policy) { p.BeaconEpochRounds = epoch },
	})
	f.h.StartAll()
	f.stepUntilRound(3*epoch, 2_000_000)
	want := f.servers[0].Round() / epoch
	for _, s := range f.servers {
		if s.RosterVersion() < want-1 {
			t.Fatalf("server %d version %d after %d boundaries", s.Index(), s.RosterVersion(), want)
		}
	}
	changed := f.h.EventsOf(EventRosterChanged)
	if len(changed) == 0 {
		t.Fatal("no roster-changed events across boundaries")
	}
	for _, e := range changed {
		if e.Round%epoch != 0 {
			t.Fatalf("roster change at round %d, not a boundary", e.Round)
		}
	}
}

// snapshotVictim is what a snapshot-install row needs to know about the
// client the forged snapshot targets.
type snapshotVictim struct {
	idx, slot int                 // its roster index and slot in the genuine snapshot
	other     *group.RosterUpdate // a fully certified update that does not admit it
}

// mutateUpdate re-encodes the snapshot's embedded update after fn
// edited it.
func mutateUpdate(t *testing.T, w *JoinWelcome, fn func(u *group.RosterUpdate)) {
	t.Helper()
	u, err := group.DecodeRosterUpdate(w.Update)
	if err != nil {
		t.Fatal(err)
	}
	fn(u)
	w.Update = wire.Encode(u)
}

// TestSnapshotInstallRejects runs one table of malformed session
// snapshots through both roles of the MsgSnapshot handler — a joining
// client's welcome and an established client's re-sync, with a round in
// flight. Every snapshot is signed by a real server, so only the
// installer's own checks stand between it and the client's state: each
// row must yield a protocol violation and change nothing, and the
// genuine snapshot must still install afterwards — as must, for the
// established client, the same snapshot without an update, which restates
// its own roster version and digest.
func TestSnapshotInstallRejects(t *testing.T) {
	const epoch = 4
	rows := []struct {
		name       string
		joinerOnly bool
		mutate     func(t *testing.T, w *JoinWelcome, v snapshotVictim)
	}{
		{name: "roster and expelled lengths differ", mutate: func(t *testing.T, w *JoinWelcome, v snapshotVictim) {
			w.Expelled = w.Expelled[:len(w.Expelled)-1]
		}},
		{name: "update version ahead of snapshot", mutate: func(t *testing.T, w *JoinWelcome, v snapshotVictim) {
			mutateUpdate(t, w, func(u *group.RosterUpdate) { u.Version = w.Version + 1 })
		}},
		{name: "update not signed by every server", mutate: func(t *testing.T, w *JoinWelcome, v snapshotVictim) {
			mutateUpdate(t, w, func(u *group.RosterUpdate) { u.Sigs = u.Sigs[:len(u.Sigs)-1] })
		}},
		{name: "digest differs from the certified update", mutate: func(t *testing.T, w *JoinWelcome, v snapshotVictim) {
			w.Digest[0] ^= 1
		}},
		{name: "roster without us", mutate: func(t *testing.T, w *JoinWelcome, v snapshotVictim) {
			w.RosterKeys = slices.Delete(slices.Clone(w.RosterKeys), v.idx, v.idx+1)
			w.Expelled = slices.Delete(slices.Clone(w.Expelled), v.idx, v.idx+1)
		}},
		{name: "update does not admit us", joinerOnly: true, mutate: func(t *testing.T, w *JoinWelcome, v snapshotVictim) {
			w.Update = wire.Encode(v.other)
		}},
		{name: "slot does not carry our pseudonym", mutate: func(t *testing.T, w *JoinWelcome, v snapshotVictim) {
			w.SlotKeys[v.slot] = w.SlotKeys[(v.slot+1)%len(w.SlotKeys)]
		}},
		{name: "our pseudonym key in two slots", mutate: func(t *testing.T, w *JoinWelcome, v snapshotVictim) {
			w.SlotKeys[(v.slot+1)%len(w.SlotKeys)] = w.SlotKeys[v.slot]
		}},
		{name: "empty update at another version", mutate: func(t *testing.T, w *JoinWelcome, v snapshotVictim) {
			w.Update, w.Version = nil, w.Version+1
		}},
		{name: "empty update at another roster digest", mutate: func(t *testing.T, w *JoinWelcome, v snapshotVictim) {
			w.Update = nil
			w.Digest[0] ^= 1
		}},
		{name: "queue longer than the lag", mutate: func(t *testing.T, w *JoinWelcome, v snapshotVictim) {
			// Queue one well-formed delta row at depth 1, whose lag is 0 (the
			// state ends with the row count; a row is (op, length) per slot).
			binary.BigEndian.PutUint32(w.Sched[len(w.Sched)-4:], 1)
			w.Sched = append(w.Sched, make([]byte, 5*len(w.SlotKeys))...)
		}},
		{name: "drain round ahead of engine round", mutate: func(t *testing.T, w *JoinWelcome, v snapshotVictim) {
			binary.BigEndian.PutUint64(w.Sched[8:], schedHead(w.Sched)+1) // the state opens with the head, then the drain point
		}},
		{name: "short beacon head", mutate: func(t *testing.T, w *JoinWelcome, v snapshotVictim) {
			w.BeaconHead = w.BeaconHead[:len(w.BeaconHead)-1]
		}},
		{name: "bad pending op", mutate: func(t *testing.T, w *JoinWelcome, v snapshotVictim) {
			// Queue one delta row whose first op is out of range (the state
			// ends with the row count; a row is (op, length) per slot).
			row := make([]byte, 5*len(w.SlotKeys))
			row[0] = 99
			binary.BigEndian.PutUint32(w.Sched[len(w.Sched)-4:], 1)
			w.Sched = append(w.Sched, row...)
		}},
	}

	f := newFixture(t, 2, 3, fixtureOpts{
		mutatePolicy: func(p *group.Policy) {
			p.BeaconEpochRounds = epoch
			p.Alpha = 0.5
			p.OpenAdmission = true
		},
	})
	f.h.StartAll()
	// The first boundary certifies an empty update: fully signed, and it
	// admits nobody.
	f.stepUntilRound(epoch+1, 2_000_000)
	srv := f.servers[0]
	other := srv.lastRosterUpdate
	if other == nil || len(other.Admit) != 0 {
		t.Fatalf("first boundary update = %+v, want a certified empty update", other)
	}

	// The joiner enters after that boundary; every welcome addressed to
	// it is captured instead of delivered, so it stays un-bootstrapped.
	joinKP, _ := crypto.GenerateKeyPair(crypto.P256(), nil)
	joiner, err := NewJoinerClient(f.def, joinKP, "", Options{MessageGroup: crypto.ModP512Test()})
	if err != nil {
		t.Fatal(err)
	}
	f.h.AddNode(joiner.ID(), joiner, 0)
	var welcome *Message
	f.h.Outbound = func(from group.NodeID, m *Message) (time.Duration, bool) {
		if m.Type != MsgSnapshot {
			return 0, false
		}
		if welcome == nil {
			welcome = m
		}
		return 0, true
	}
	now := f.h.Net.Now()
	out, err := joiner.Start(now)
	f.h.ProcessExternal(joiner.ID(), now, out, err)
	f.stepUntilRound(2*epoch+2, 2_000_000) // past the admitting boundary, mid-epoch
	if welcome == nil {
		t.Fatalf("the joiner was never welcomed; violations: %v", f.violations())
	}
	established := f.clients[0]
	established.Send([]byte("queued behind the round in flight"))
	if !established.Ready() || len(established.inflight) == 0 {
		t.Fatalf("established client not mid-round: ready=%v inflight=%d", established.Ready(), len(established.inflight))
	}
	now = f.h.Net.Now()

	type clientState struct {
		version        uint64
		index, slot    int
		round          uint64
		inflight, pend int
		ready          bool
	}
	stateOf := func(c *Client) clientState {
		return clientState{c.RosterVersion(), c.Index(), c.Slot(), c.Round(), len(c.inflight), c.Pending(), c.Ready()}
	}
	has := func(out *Output, kind EventKind) bool {
		return slices.ContainsFunc(out.Events, func(e Event) bool { return e.Kind == kind })
	}

	genuineWelcome, err := decode[JoinWelcome](welcome.Body)
	if err != nil {
		t.Fatal(err)
	}
	joinerPseu := crypto.P256().Encode(joiner.pseudonym.Public)
	modes := []struct {
		name      string
		c         *Client
		genuine   *JoinWelcome
		victim    snapshotVictim
		installed EventKind
	}{
		{"join-welcome", joiner, genuineWelcome,
			snapshotVictim{idx: len(genuineWelcome.RosterKeys) - 1, other: other,
				slot: slices.IndexFunc(genuineWelcome.SlotKeys, func(k []byte) bool { return bytes.Equal(k, joinerPseu) })},
			EventScheduleReady},
		{"snapshot-sync", established, srv.buildSnapshot(srv.lastRosterUpdate),
			snapshotVictim{idx: established.Index(), slot: established.Slot(), other: other},
			EventReplicaResynced},
	}
	for _, mode := range modes {
		deliver := func(t *testing.T, w *JoinWelcome) *Output {
			t.Helper()
			m, err := srv.sign(MsgSnapshot, schedHead(w.Sched), wire.Encode(w))
			if err != nil {
				t.Fatal(err)
			}
			out, err := mode.c.Handle(now, m)
			if err != nil {
				t.Fatalf("engine error: %v", err)
			}
			return out
		}
		before := stateOf(mode.c)
		for _, row := range rows {
			if row.joinerOnly && mode.c != joiner {
				continue
			}
			t.Run(mode.name+"/"+row.name, func(t *testing.T) {
				w, err := decode[JoinWelcome](wire.Encode(mode.genuine)) // private copy
				if err != nil {
					t.Fatal(err)
				}
				row.mutate(t, w, mode.victim)
				if out := deliver(t, w); !has(out, EventProtocolViolation) {
					t.Errorf("accepted: %+v", out.Events)
				}
				if after := stateOf(mode.c); after != before {
					t.Errorf("rejected snapshot changed the client:\n before %+v\n after  %+v", before, after)
				}
			})
		}
		t.Run(mode.name+"/genuine still installs", func(t *testing.T) {
			out := deliver(t, mode.genuine)
			if has(out, EventProtocolViolation) || !has(out, mode.installed) {
				t.Fatalf("genuine snapshot not installed: %+v", out.Events)
			}
			after := stateOf(mode.c)
			if !after.ready || after.version != mode.genuine.Version || after.index != mode.victim.idx ||
				after.slot != mode.victim.slot || after.round <= schedHead(mode.genuine.Sched) {
				t.Fatalf("installed state %+v does not match snapshot (version %d, round %d, victim %+v)",
					after, mode.genuine.Version, schedHead(mode.genuine.Sched), mode.victim)
			}
		})
	}
	t.Run("snapshot-sync/empty update at our own version installs", func(t *testing.T) {
		w, err := decode[JoinWelcome](wire.Encode(srv.buildSnapshot(nil)))
		if err != nil {
			t.Fatal(err)
		}
		if w.Version != established.RosterVersion() {
			t.Fatalf("server at version %d, client at %d", w.Version, established.RosterVersion())
		}
		m, err := srv.sign(MsgSnapshot, schedHead(w.Sched), wire.Encode(w))
		if err != nil {
			t.Fatal(err)
		}
		out, err := established.Handle(now, m)
		if err != nil || has(out, EventProtocolViolation) || !has(out, EventReplicaResynced) {
			t.Fatalf("snapshot without an update at our own version not installed: %+v, %v", out.Events, err)
		}
	})
}
