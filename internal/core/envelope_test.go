package core

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"dissent/internal/beacon"
	"dissent/internal/crypto"
	"dissent/internal/group"
	"dissent/internal/wire"
)

// TestEnvelopeSignatureCoversEveryField: the envelope signature is over
// a digest now, not over the concatenated message — it must still
// reject a change to the group ID, the type, the round, the sender and
// any single byte of the body.
func TestEnvelopeSignatureCoversEveryField(t *testing.T) {
	f := newFixture(t, 2, 2, fixtureOpts{})
	signer, other := f.clients[0], f.clients[1]
	srv := f.servers[0]
	body := []byte("a signed body, every byte of which counts")
	genuine, err := signer.sign(MsgClientSubmit, 7, body)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ingress(genuine, serverSenders).err; err != nil {
		t.Fatalf("genuine message rejected: %v", err)
	}

	tamper := func(name string, mutate func(m *Message)) {
		t.Helper()
		m := &Message{From: genuine.From, Type: genuine.Type, Round: genuine.Round,
			Body: bytes.Clone(genuine.Body), Sig: genuine.Sig}
		mutate(m)
		if srv.ingress(m, serverSenders).err == nil {
			t.Errorf("%s: signature still verifies", name)
		}
	}
	tamper("type", func(m *Message) { m.Type = MsgBlameSubmit })
	tamper("round", func(m *Message) { m.Round++ })
	tamper("round high byte", func(m *Message) { m.Round |= 1 << 56 })
	tamper("sender", func(m *Message) { m.From = other.ID() })
	tamper("body truncated", func(m *Message) { m.Body = m.Body[:len(m.Body)-1] })
	tamper("body extended", func(m *Message) { m.Body = append(m.Body, 0) })
	for i := range body {
		i := i
		tamper("body byte", func(m *Message) { m.Body[i] ^= 0x01 })
	}

	// Same message, same keys, another group: a verifier whose group ID
	// differs in one bit refuses it.
	foreign := srv.node
	foreign.grpID[31] ^= 0x01
	if foreign.ingress(genuine, serverSenders).err == nil {
		t.Error("group ID: signature verifies under another group's ID")
	}
}

// TestSignedDigestsAreInjective: the signed digests feed their fields to
// the hash as length-prefixed parts, so two inputs that differ only in
// where a field boundary falls — identical once concatenated — still
// hash differently.
func TestSignedDigestsAreInjective(t *testing.T) {
	var grp [32]byte
	copy(grp[:], "an arbitrary group identifier...")

	// The round certificate's fields are fixed-width and each in its own
	// place: swapping two of equal width changes the digest.
	clear, prev := beacon.CleartextHash([]byte("cleartext")), beacon.GenesisValue(grp)
	a := beacon.CertDigest(5, 3, clear, prev)
	if bytes.Equal(a, beacon.CertDigest(3, 5, clear, prev)) {
		t.Error("round certificate digest ignores the round/count order")
	}
	if bytes.Equal(a, beacon.CertDigest(5, 3, prev, clear)) {
		t.Error("round certificate digest ignores the cleartext/head order")
	}

	// An envelope's last header byte is not its first body byte.
	var id1, id2 group.NodeID
	copy(id1[:], "sender-A")
	copy(id2[:], "sender-")
	m1 := &Message{From: id1, Type: MsgShare, Round: 1, Body: []byte("body")}
	m2 := &Message{From: id2, Type: MsgShare, Round: 1, Body: []byte("Abody")}
	if bytes.Equal(m1.digest(grp), m2.digest(grp)) {
		t.Error("message digest ignores the header/body boundary")
	}
	// And the digest is a function of exactly (group, type, round,
	// sender, body): the signature is not part of what is signed.
	m3 := &Message{From: id1, Type: MsgShare, Round: 1, Body: []byte("body"), Sig: []byte("anything")}
	if !bytes.Equal(m1.digest(grp), m3.digest(grp)) {
		t.Error("message digest depends on the signature field")
	}
}

// forged returns a message claiming to come from from, with a 64-byte
// zero signature nobody made.
func forged(from group.NodeID, t MsgType, round uint64, body []byte) *Message {
	return &Message{From: from, Type: t, Round: round, Body: body, Sig: make([]byte, 64)}
}

// TestForgedFramesChargeNoOne: frames whose signature fails are charged
// to no one, whoever they name. Eight forged submissions for the open
// round claiming an honest client, a forged future-round inventory
// claiming a server (stashed, then replayed when its round opens, if the
// stash took unverified frames) and enough forged future-round
// submissions to overflow the stash must raise no misbehavior, must not
// get the named client removed at the epoch boundary, and must not stop
// rounds certifying.
func TestForgedFramesChargeNoOne(t *testing.T) {
	const epoch = 4
	f := newFixture(t, 2, 3, fixtureOpts{
		mutatePolicy: func(p *group.Policy) { p.BeaconEpochRounds = epoch },
	})
	victim := f.clients[0]
	srv := f.servers[f.def.UpstreamServer(victim.Index())]
	f.h.StartAll()
	var open *roundState
	for i := 0; i < 1_000_000 && f.h.Net.Step(); i++ {
		if rs := srv.rounds[srv.nextOpen-1]; srv.phase == phaseRunning && rs != nil && rs.r >= 1 && rs.phase == rpCollect {
			open = rs
			break
		}
	}
	if open == nil || open.r >= epoch-1 {
		t.Fatalf("no round open for collection before the boundary (head %d)", srv.head())
	}
	next := srv.nextOpen
	submit := wire.Encode(&ClientSubmit{CT: make([]byte, open.vecLen)})
	var frames []*Message
	for range 8 {
		frames = append(frames, forged(victim.ID(), MsgClientSubmit, open.r, submit))
	}
	frames = append(frames, forged(f.servers[1-srv.Index()].ID(), MsgInventory, next, wire.Encode(&Inventory{})))
	for range 4200 {
		frames = append(frames, forged(victim.ID(), MsgClientSubmit, next, submit))
	}
	now := f.h.Net.Now()
	for _, m := range frames {
		out, err := srv.Handle(now, m)
		f.h.ProcessExternal(srv.ID(), now, out, err)
	}
	if n := len(srv.stash); n != 0 {
		t.Errorf("%d forged frames stashed", n)
	}

	f.stepUntilRound(epoch+2, 3_000_000)
	if evs := f.h.EventsOf(EventMisbehavior); len(evs) > 0 {
		t.Errorf("%d misbehavior charges, the first by %s against %s in round %d: %s",
			len(evs), evs[0].Node, evs[0].Culprit, evs[0].Round, evs[0].Detail)
	}
	for _, s := range f.servers {
		if s.Round() <= epoch+2 {
			t.Errorf("server %d stalled at round %d", s.Index(), s.Round())
		}
		if s.def.Version == 0 {
			t.Errorf("server %d never applied the boundary's roster update", s.Index())
		}
		if s.Excluded(victim.Index()) || s.def.Clients[victim.Index()].Expelled {
			t.Errorf("server %d removed the client the forged frames named", s.Index())
		}
	}
	if n := len(f.h.EventsOf(EventMemberExpelled)); n != 0 {
		t.Errorf("%d expulsions", n)
	}
}

// TestIngressRejections: each engine's one ingress check turns an
// unsigned message, one from a sender outside the roster, one from a
// member whose role may not send its type, and a type the engine does
// not take into exactly one protocol violation — no error, nothing
// sent, and head, phase and stash as they were. So does a client given a
// round output whose certificate fails. The server's first two
// rows carry a catch-up probe and a retired-round submission; the
// member's signed copy of each is answered.
func TestIngressRejections(t *testing.T) {
	f := newFixture(t, 2, 2, fixtureOpts{
		mutatePolicy: func(p *group.Policy) { p.BeaconEpochRounds = 4 },
	})
	f.h.StartAll()
	f.stepUntilRound(2, 1_000_000)
	srv, peer, cl := f.servers[0], f.servers[1], f.clients[0]
	kp, _ := crypto.GenerateKeyPair(crypto.P256(), nil)
	stranger := &node{kp: kp, id: group.IDFromKey(crypto.P256(), kp.Public), grpID: f.def.GroupID(), keyGrp: crypto.P256()}
	sign := func(n *node, typ MsgType, round uint64, body []byte) *Message {
		m, err := n.sign(typ, round, body)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	unsigned := func(m *Message) *Message { m.Sig = nil; return m }
	head := srv.head()
	probe := wire.Encode(&JoinRequest{Version: 0})
	submit := wire.Encode(&ClientSubmit{CT: []byte{0}})
	blame := wire.Encode(&BlameStart{Session: 1})
	// A client takes a round output on its certificate, not its envelope:
	// this one's certificate signature nobody made.
	badCert := &Message{From: srv.ID(), Type: MsgOutput, Round: cl.head(),
		Body: wire.Encode(&RoundOutput{Count: 1, Cleartext: []byte{0}, Sigs: [][]byte{make([]byte, 64)}})}

	type state struct {
		head, next    uint64
		phase         serverPhase
		stash         int
		cHead, cRound uint64
		inflight      int
		awaitingBlame bool
	}
	snap := func() state {
		return state{srv.head(), srv.nextOpen, srv.phase, len(srv.stash),
			cl.head(), cl.round, len(cl.inflight), cl.awaitingBlame}
	}
	for _, tc := range []struct {
		name    string
		e       Engine
		m       *Message
		genuine *Message // the member's signed copy, which is answered
	}{
		{"server/unsigned", srv, unsigned(sign(&cl.node, MsgJoinRequest, head-1, probe)), sign(&cl.node, MsgJoinRequest, head-1, probe)},
		{"server/unknown sender", srv, sign(stranger, MsgClientSubmit, head-1, submit), sign(&cl.node, MsgClientSubmit, head-1, submit)},
		{"server/wrong role", srv, sign(&peer.node, MsgClientSubmit, head, submit), nil},
		{"server/type not taken", srv, sign(&peer.node, MsgSchedule, head, nil), nil},
		{"client/unsigned", cl, unsigned(sign(&srv.node, MsgBlameStart, head, blame)), nil},
		{"client/output with a bad certificate", cl, badCert, nil},
		{"client/unknown sender", cl, sign(stranger, MsgBlameStart, head, blame), nil},
		{"client/wrong role", cl, sign(&f.clients[1].node, MsgBlameStart, head, blame), nil},
		{"client/type not taken", cl, sign(&srv.node, MsgInventory, head, wire.Encode(&Inventory{})), nil},
	} {
		before := snap()
		out, err := tc.e.Handle(f.h.Net.Now(), tc.m)
		if err != nil {
			t.Errorf("%s: engine error: %v", tc.name, err)
			continue
		}
		if len(out.Events) != 1 || out.Events[0].Kind != EventProtocolViolation || len(out.Send) != 0 {
			t.Errorf("%s: want one violation and nothing sent, got events %+v and %d sends", tc.name, out.Events, len(out.Send))
		}
		if after := snap(); after != before {
			t.Errorf("%s: state moved from %+v to %+v", tc.name, before, after)
		}
		if tc.genuine != nil {
			if out, err := tc.e.Handle(f.h.Net.Now(), tc.genuine); err != nil || len(out.Send) == 0 {
				t.Errorf("%s: the member's signed copy went unanswered (%v)", tc.name, err)
			}
		}
	}
}

// TestCheckThenExpel: a message checked against one roster version can
// reach the engine under a later one. A client's submission checked at
// version v passes; once v+1 has expelled the client, the engine refuses
// the checked message — as it refuses the same message checked inline —
// as one uncharged protocol violation, and sends nothing.
func TestCheckThenExpel(t *testing.T) {
	const epoch = 4
	f := newFixture(t, 2, 3, fixtureOpts{
		mutatePolicy: func(p *group.Policy) { p.BeaconEpochRounds = epoch },
	})
	victim := f.clients[0]
	srv := f.servers[f.def.UpstreamServer(victim.Index())]
	f.h.StartAll()
	f.stepUntilRound(1, 1_000_000)
	v := srv.def.Version
	m, err := victim.sign(MsgClientSubmit, srv.head(), wire.Encode(&ClientSubmit{CT: make([]byte, 8)}))
	if err != nil {
		t.Fatal(err)
	}
	chk := srv.Check(m)
	if chk.err != nil {
		t.Fatalf("submission refused at roster version %d: %v", v, chk.err)
	}
	if err := srv.Expel(victim.ID()); err != nil {
		t.Fatal(err)
	}
	f.stepUntilRound(epoch+1, 3_000_000)
	if srv.def.Version <= v || !srv.def.Clients[victim.Index()].Expelled {
		t.Fatalf("roster at version %d, client expelled %v: the boundary did not expel it",
			srv.def.Version, srv.def.Clients[victim.Index()].Expelled)
	}
	for name, handle := range map[string]func() (*Output, error){
		"checked at v": func() (*Output, error) { return srv.HandleChecked(f.h.Net.Now(), chk) },
		"inline":       func() (*Output, error) { return srv.Handle(f.h.Net.Now(), m) },
	} {
		out, err := handle()
		if err != nil {
			t.Fatalf("%s: engine error: %v", name, err)
		}
		if len(out.Events) != 1 || out.Events[0].Kind != EventProtocolViolation || len(out.Send) != 0 {
			t.Fatalf("%s: want one violation and nothing sent, got events %+v and %d sends", name, out.Events, len(out.Send))
		}
		if e := out.Events[0]; e.Culprit != (group.NodeID{}) || !strings.Contains(e.Detail, "expelled client") {
			t.Errorf("%s: violation %+v names a culprit or another cause", name, e)
		}
	}
}

// TestConcurrentCheckMatchesInline: ingress runs on many goroutines at
// once — each checking its own messages, and all of them one shared
// *Message as SimNet hands every recipient the same pointer — while the
// engine steps through epoch boundaries that expel a client. Each result
// the engine takes (admit, one per network step) equals the inline check
// at the engine's current roster: same verdict, same digest, same error.
// Run under -race.
func TestConcurrentCheckMatchesInline(t *testing.T) {
	const epoch, checkers = 2, 6
	f := newFixture(t, 2, 4, fixtureOpts{
		mutatePolicy: func(p *group.Policy) { p.BeaconEpochRounds = epoch },
	})
	srv, peer, victim := f.servers[0], f.servers[1], f.clients[1]
	kp, _ := crypto.GenerateKeyPair(crypto.P256(), nil)
	stranger := &node{kp: kp, id: group.IDFromKey(crypto.P256(), kp.Public), grpID: f.def.GroupID(), keyGrp: crypto.P256()}
	sign := func(n *node, typ MsgType, body []byte) *Message {
		m, err := n.sign(typ, 1, body)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	submit := wire.Encode(&ClientSubmit{CT: []byte{0}})
	shared := sign(&peer.node, MsgInventory, wire.Encode(&Inventory{}))
	var own [][]*Message
	victimSubmits := make(map[*Message]bool) // the victim's genuine submissions
	for i := range checkers {
		c := f.clients[i%len(f.clients)]
		vs := sign(&victim.node, MsgClientSubmit, submit)
		victimSubmits[vs] = true
		own = append(own, []*Message{
			sign(&c.node, MsgClientSubmit, submit),
			vs,
			sign(&victim.node, MsgJoinRequest, wire.Encode(&JoinRequest{Rejoin: true})),
			sign(stranger, MsgJoinRequest, wire.Encode(&JoinRequest{PubKey: crypto.P256().Encode(kp.Public)})),
			sign(&c.node, MsgInventory, wire.Encode(&Inventory{})),
			forged(c.ID(), MsgClientSubmit, 1, submit),
			shared,
		})
	}

	results := make(chan Checked)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := range checkers {
		wg.Add(1)
		go func(msgs []*Message) {
			defer wg.Done()
			for {
				for _, m := range msgs {
					select {
					case <-stop:
						return
					case results <- srv.Check(m):
					}
				}
			}
		}(own[i])
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	take := func(c Checked) (accepted bool) {
		digest, err := srv.admit(c, serverSenders)
		want := srv.ingress(c.Msg, serverSenders)
		if (err == nil) != (want.err == nil) || err != nil && err.Error() != want.err.Error() || !bytes.Equal(digest, want.digest) {
			t.Fatalf("%s from %s: checked early gives (%x, %v), inline at version %d (%x, %v)",
				c.Msg.Type, c.Msg.From, digest, err, srv.def.Version, want.digest, want.err)
		}
		return err == nil
	}

	f.h.StartAll()
	var expelled bool
	var took, victimAccepted, victimRefused int
	for i := 0; i < 3_000_000 && srv.def.Version < 4 && f.h.Net.Step(); i++ {
		if !expelled && srv.def.Version == 1 {
			if err := srv.Expel(victim.ID()); err != nil {
				t.Fatal(err)
			}
			expelled = true
		}
		select {
		case c := <-results:
			took++
			if ok := take(c); victimSubmits[c.Msg] {
				if ok {
					victimAccepted++
				} else {
					victimRefused++
				}
			}
		default:
		}
	}
	if srv.def.Version < 4 || !srv.def.Clients[victim.Index()].Expelled {
		t.Fatalf("roster at version %d, victim expelled %v", srv.def.Version, srv.def.Clients[victim.Index()].Expelled)
	}
	if victimAccepted == 0 || victimRefused == 0 {
		t.Errorf("of %d checks the engine took, the victim's submission was accepted %d and refused %d times; want both",
			took, victimAccepted, victimRefused)
	}
}
