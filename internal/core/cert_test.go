package core

import (
	"bytes"
	"math/big"
	"strings"
	"testing"
	"time"

	"dissent/internal/crypto"
	"dissent/internal/group"
	"dissent/internal/wire"
)

// Round-certificate tests: what a verifier accepts (verifyRoundCert,
// and a client end to end), and the signing nonce's lifecycle across
// every path that re-runs a round attempt.

// collectiveCert signs digest the way a round's servers do — nonce,
// challenge, one partial response each — using only the servers at the
// given definition indices, and returns the combined signature.
func (f *fixture) collectiveCert(signers []int, digest []byte) []byte {
	g := f.def.Group()
	ms := crypto.NewMultisig(g, f.def.ServerPubKeys())
	ks := make([]*big.Int, len(signers))
	nonces := make([]crypto.Element, len(signers))
	for i := range signers {
		ks[i], _ = g.RandomScalar(nil)
		nonces[i] = g.BaseMult(ks[i])
	}
	c := ms.Challenge("dissent/cleartext", nonces, digest)
	partials := make([]*big.Int, len(signers))
	for i, si := range signers {
		partials[i] = ms.Respond(si, f.kpByID[f.def.Servers[si].ID].Private, ks[i], c)
	}
	return crypto.EncodeSignature(g, ms.Combine(c, partials))
}

// perServerCerts returns one ordinary signature over digest per listed
// server.
func (f *fixture) perServerCerts(signers []int, digest []byte) [][]byte {
	var sigs [][]byte
	for _, si := range signers {
		sig, err := f.kpByID[f.def.Servers[si].ID].Sign("dissent/cleartext", digest, nil)
		if err != nil {
			f.t.Fatal(err)
		}
		sigs = append(sigs, crypto.EncodeSignature(f.def.Group(), sig))
	}
	return sigs
}

func TestVerifyRoundCert(t *testing.T) {
	f := newFixture(t, 3, 2, fixtureOpts{})
	grpID := f.def.GroupID()
	aggKey := crypto.NewMultisig(f.def.Group(), f.def.ServerPubKeys()).Key()
	const round = 9
	clear := []byte("the round's cleartext vector")
	bval := []byte("beacon value")
	all := []int{0, 1, 2}

	normal := cleartextSignedBytes(grpID, round, 2, clear, bval)
	failed := cleartextSignedBytes(grpID, round, 1, nil, nil)
	good := f.collectiveCert(all, normal)

	cases := []struct {
		name   string
		ro     RoundOutput
		round  uint64
		beacon []byte
		ok     bool
	}{
		{"collective signature of all servers",
			RoundOutput{Cleartext: clear, Count: 2, Sigs: [][]byte{good}}, round, bval, true},
		{"collective signature of M-1 servers",
			RoundOutput{Cleartext: clear, Count: 2, Sigs: [][]byte{f.collectiveCert([]int{0, 1}, normal)}}, round, bval, false},
		{"one server's own signature",
			RoundOutput{Cleartext: clear, Count: 2, Sigs: f.perServerCerts([]int{1}, normal)}, round, bval, false},
		{"a signature per server on a normal round",
			RoundOutput{Cleartext: clear, Count: 2, Sigs: f.perServerCerts(all, normal)}, round, bval, false},
		{"collective signature twice",
			RoundOutput{Cleartext: clear, Count: 2, Sigs: [][]byte{good, good}}, round, bval, false},
		{"no signature",
			RoundOutput{Cleartext: clear, Count: 2}, round, bval, false},
		{"malformed signature",
			RoundOutput{Cleartext: clear, Count: 2, Sigs: [][]byte{good[1:]}}, round, bval, false},
		{"other cleartext",
			RoundOutput{Cleartext: []byte("another cleartext"), Count: 2, Sigs: [][]byte{good}}, round, bval, false},
		{"other participation count",
			RoundOutput{Cleartext: clear, Count: 3, Sigs: [][]byte{good}}, round, bval, false},
		{"other round",
			RoundOutput{Cleartext: clear, Count: 2, Sigs: [][]byte{good}}, round + 1, bval, false},
		{"other beacon value",
			RoundOutput{Cleartext: clear, Count: 2, Sigs: [][]byte{good}}, round, []byte("forged"), false},
		{"collective signature relabelled failed",
			RoundOutput{Cleartext: clear, Count: 2, Failed: true, Sigs: [][]byte{good}}, round, bval, false},

		{"failed round, a signature per server",
			RoundOutput{Count: 1, Failed: true, Sigs: f.perServerCerts(all, failed)}, round, nil, true},
		{"failed round, M-1 signatures",
			RoundOutput{Count: 1, Failed: true, Sigs: f.perServerCerts([]int{0, 1}, failed)}, round, nil, false},
		{"failed round, signatures out of server order",
			RoundOutput{Count: 1, Failed: true, Sigs: f.perServerCerts([]int{1, 0, 2}, failed)}, round, nil, false},
		{"failed round, one server signing thrice",
			RoundOutput{Count: 1, Failed: true, Sigs: f.perServerCerts([]int{0, 0, 0}, failed)}, round, nil, false},
		{"failed round, collective signature",
			RoundOutput{Count: 1, Failed: true, Sigs: [][]byte{f.collectiveCert(all, failed)}}, round, nil, false},
		{"failed-round signatures relabelled normal",
			RoundOutput{Count: 1, Sigs: f.perServerCerts(all, failed)}, round, nil, false},
	}
	for _, c := range cases {
		err := verifyRoundCert(f.def, aggKey, grpID, c.round, &c.ro, c.beacon)
		if c.ok && err != nil {
			t.Errorf("%s: rejected: %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestClientRejectsUncollectiveOutput hands a live client outputs for
// its next round that every server really signed — but not as one
// collective signature — and one only M−1 servers produced. None may
// advance the client.
func TestClientRejectsUncollectiveOutput(t *testing.T) {
	f := newFixture(t, 3, 3, fixtureOpts{
		mutatePolicy: func(p *group.Policy) { p.BeaconEpochRounds = 0 }, // no beacon value to forge
	})
	f.runUntilRound(2, 2_000_000)
	c := f.clients[0]
	next := c.head()
	vecLen := f.servers[0].sched.Layout(next).Len
	clear := make([]byte, vecLen)
	digest := cleartextSignedBytes(f.def.GroupID(), next, 3, clear, nil)

	forged := map[string][][]byte{
		"per-server signatures": f.perServerCerts([]int{0, 1, 2}, digest),
		"M-1 collective":        {f.collectiveCert([]int{0, 2}, digest)},
	}
	for name, sigs := range forged {
		body := wire.Encode(&RoundOutput{Cleartext: clear, Count: 3, Sigs: sigs})
		out, err := c.Handle(f.h.Net.Now(), &Message{From: f.def.Servers[0].ID, Type: MsgOutput, Round: next, Body: body})
		if err != nil {
			t.Fatalf("%s: hard error: %v", name, err)
		}
		if c.head() != next {
			t.Fatalf("%s: client consumed the output", name)
		}
		if len(out.Events) != 1 || out.Events[0].Kind != EventProtocolViolation {
			t.Fatalf("%s: want one protocol violation, got %+v", name, out.Events)
		}
	}
	// The genuine article, for contrast: all three servers, collectively.
	body := wire.Encode(&RoundOutput{Cleartext: clear, Count: 3,
		Sigs: [][]byte{f.collectiveCert([]int{0, 1, 2}, digest)}})
	if _, err := c.Handle(f.h.Net.Now(), &Message{From: f.def.Servers[0].ID, Type: MsgOutput, Round: next, Body: body}); err != nil {
		t.Fatal(err)
	}
	if c.head() != next+1 {
		t.Fatal("client refused a collectively certified output")
	}
}

// TestSendCertifyFailsClosedWithoutNonce: a nonce answers one challenge.
// A second certify in the same attempt, or one after the attempt was
// reset, must error out rather than respond again.
func TestSendCertifyFailsClosedWithoutNonce(t *testing.T) {
	f := newFixture(t, 2, 2, fixtureOpts{})
	f.runUntilRound(1, 1_000_000)
	s := f.servers[0]
	now := f.h.Net.Now()
	rs := s.rounds[s.head()]
	if rs == nil || rs.phase > rpInventory {
		t.Fatalf("no collecting head round to hijack: %+v", rs)
	}
	peer, _ := s.keyGrp.RandomElement(nil)
	arm := func() crypto.Element {
		t.Helper()
		rs.myShare = make([]byte, rs.vecLen)
		if _, err := s.sendCommit(now, rs); err != nil {
			t.Fatal(err)
		}
		rs.nonces[1] = peer
		rs.cleartext = make([]byte, rs.vecLen)
		return rs.nonces[0]
	}

	first := arm()
	if rs.nonce == nil {
		t.Fatal("commit drew no nonce")
	}
	if _, err := s.sendCertify(now, rs); err != nil {
		t.Fatalf("first certify: %v", err)
	}
	if rs.nonce != nil {
		t.Fatal("nonce survived the response it answered")
	}
	if _, err := s.sendCertify(now, rs); err == nil || !strings.Contains(err.Error(), "without a live nonce") {
		t.Fatalf("second certify in one attempt: err = %v", err)
	}

	second := arm()
	if s.keyGrp.Equal(first, second) {
		t.Fatal("a re-run commit reused the nonce")
	}
	s.resetRoundAttempt(rs, rs.attempt+1)
	if rs.nonce != nil || len(rs.nonces) != 0 || rs.certChal != nil {
		t.Fatal("attempt reset kept signing-session state")
	}
	if _, err := s.sendCertify(now, rs); err == nil || !strings.Contains(err.Error(), "without a live nonce") {
		t.Fatalf("certify after an attempt reset: err = %v", err)
	}

	// A failed round has no session to protect and signs on its own.
	rs.failed = true
	if _, err := s.sendCertify(now, rs); err != nil {
		t.Fatalf("failed-round certify: %v", err)
	}
}

// certKey names one signing session of one server.
type certKey struct {
	server  int
	round   uint64
	attempt int32
}

// certTranscript records, from the harness wire, every nonce a server
// revealed (MsgShare) and every response it gave (MsgCertify).
type certTranscript struct {
	nonces    map[certKey][][]byte
	responses map[certKey][][]byte
}

func addDistinct(set [][]byte, b []byte) [][]byte {
	for _, have := range set {
		if bytes.Equal(have, b) {
			return set
		}
	}
	return append(set, b)
}

// recordCerts taps the harness's outbound path, ahead of any hook the
// test already installed there.
func recordCerts(f *fixture) *certTranscript {
	tr := &certTranscript{nonces: make(map[certKey][][]byte), responses: make(map[certKey][][]byte)}
	inner := f.h.Outbound
	f.h.Outbound = func(from group.NodeID, m *Message) (time.Duration, bool) {
		si := f.def.ServerIndex(from)
		switch {
		case si < 0:
		case m.Type == MsgShare:
			if p, err := decode[Share](m.Body); err == nil {
				k := certKey{si, m.Round, p.Attempt}
				tr.nonces[k] = addDistinct(tr.nonces[k], p.Nonce)
			}
		case m.Type == MsgCertify:
			if p, err := decode[Certify](m.Body); err == nil {
				k := certKey{si, m.Round, p.Attempt}
				tr.responses[k] = addDistinct(tr.responses[k], p.Sig)
			}
		}
		if inner != nil {
			return inner(from, m)
		}
		return 0, false
	}
	return tr
}

// check asserts the two transcript-level nonce rules: a server reveals
// one nonce per attempt and never the same one under two attempts, and
// it answers each revealed nonce with at most one response.
func (tr *certTranscript) check(t *testing.T) {
	t.Helper()
	if len(tr.nonces) == 0 {
		t.Fatal("transcript recorded no signing sessions")
	}
	seen := make(map[string]certKey)
	for k, ns := range tr.nonces {
		if len(ns) != 1 {
			t.Errorf("server %d revealed %d nonces in round %d attempt %d", k.server, len(ns), k.round, k.attempt)
		}
		for _, n := range ns {
			if prev, dup := seen[string(n)]; dup {
				t.Errorf("nonce reused: server %d round %d attempt %d and server %d round %d attempt %d",
					prev.server, prev.round, prev.attempt, k.server, k.round, k.attempt)
			}
			seen[string(n)] = k
		}
	}
	for k, rs := range tr.responses {
		if len(rs) != 1 {
			t.Errorf("server %d gave %d different responses in round %d attempt %d", k.server, len(rs), k.round, k.attempt)
		}
	}
}

// attemptsRevealed returns, per (server, round), the attempts in which
// the server revealed a nonce.
func (tr *certTranscript) attemptsRevealed() map[[2]uint64][]int32 {
	out := make(map[[2]uint64][]int32)
	for k := range tr.nonces {
		id := [2]uint64{uint64(k.server), k.round}
		out[id] = append(out[id], k.attempt)
	}
	return out
}

// nonceSpy records, after every engine call, each certificate nonce the
// server holds for an in-flight round — including ones it later discards
// without revealing, which the wire never shows — and the round's
// challenge once fixed.
type nonceSpy struct {
	*Server
	drawn map[certKey][][]byte
	chals map[certKey]*big.Int
}

func (sp *nonceSpy) observe() {
	for _, rs := range sp.rounds {
		k := certKey{sp.idx, rs.r, rs.attempt}
		if R, ok := rs.nonces[sp.idx]; ok {
			sp.drawn[k] = addDistinct(sp.drawn[k], sp.keyGrp.Encode(R))
		}
		if rs.certChal != nil {
			sp.chals[k] = rs.certChal
		}
	}
}

func (sp *nonceSpy) Handle(now time.Time, m *Message) (*Output, error) {
	out, err := sp.Server.Handle(now, m)
	sp.observe()
	return out, err
}

func (sp *nonceSpy) Tick(now time.Time) (*Output, error) {
	out, err := sp.Server.Tick(now)
	sp.observe()
	return out, err
}

// TestCertNonceHygiene drives every path that re-runs a round attempt
// — the α-policy reopen, a speculative commitment that missed, a peer's
// recovery escalation, and a restart from the durable store — and checks from the wire transcript that no
// nonce is revealed twice or answered twice, and from the stores that
// none reaches a snapshot.
func TestCertNonceHygiene(t *testing.T) {
	t.Run("alpha-reopen", func(t *testing.T) {
		const straggleRound = 3
		f := newFixture(t, 2, 4, fixtureOpts{
			mutatePolicy: func(p *group.Policy) {
				p.Alpha = 1.0           // nobody may be left out…
				p.WindowThreshold = 0.5 // …yet windows close without the straggler
			},
		})
		late := f.clients[0].ID()
		f.h.Outbound = func(from group.NodeID, m *Message) (time.Duration, bool) {
			if from == late && m.Type == MsgClientSubmit && m.Round == straggleRound {
				return 15 * time.Millisecond, false // past the first window close
			}
			return 0, false
		}
		tr := recordCerts(f)
		f.runUntilRound(straggleRound+2, 2_000_000)
		tr.check(t)
		if v := f.violations(); len(v) > 0 {
			t.Fatalf("violations: %v", v)
		}
		// The reopen abandons attempt 0 before any commit: the round's
		// only signing session belongs to the attempt that certified.
		for si := range f.servers {
			got := tr.attemptsRevealed()[[2]uint64{uint64(si), straggleRound}]
			if len(got) != 1 || got[0] < 1 || got[0] > maxAttempts {
				t.Errorf("server %d revealed nonces in attempts %v of the reopened round, want one reopen attempt", si, got)
			}
		}
	})

	t.Run("speculation-miss", func(t *testing.T) {
		// A straggler makes the servers that speculated at window close
		// discard that commitment and run the explicit exchange: two nonces
		// drawn in one attempt. Only the second may ever be revealed, and
		// the response on the wire must not answer the first.
		const straggleRound = 3
		spies := make(map[int]*nonceSpy)
		f := newFixture(t, 3, 4, fixtureOpts{
			mutatePolicy: func(p *group.Policy) {
				p.Alpha = 0.5
				p.WindowThreshold = 0.5
			},
			wrapServer: func(idx int, s *Server) Engine {
				spies[idx] = &nonceSpy{Server: s, drawn: make(map[certKey][][]byte), chals: make(map[certKey]*big.Int)}
				return spies[idx]
			},
		})
		late := f.clients[f.clientOfBusiestServer()].ID()
		f.h.Outbound = func(from group.NodeID, m *Message) (time.Duration, bool) {
			if from == late && m.Type == MsgClientSubmit && m.Round == straggleRound {
				return 15 * time.Millisecond, false
			}
			return 0, false
		}
		tr := recordCerts(f)
		f.runUntilRound(straggleRound+3, 2_000_000)
		tr.check(t)
		if v := f.violations(); len(v) > 0 {
			t.Fatalf("violations: %v", v)
		}
		revealed := make(map[string]bool)
		for _, ns := range tr.nonces {
			for _, n := range ns {
				revealed[string(n)] = true
			}
		}
		discards := 0
		for si, spy := range spies {
			for k, drawn := range spy.drawn {
				last := drawn[len(drawn)-1]
				if got := tr.nonces[k]; len(got) != 1 || !bytes.Equal(got[0], last) {
					t.Errorf("server %d round %d: revealed %x, want the last nonce drawn %x", si, k.round, got, last)
				}
				chal := spies[0].chals[certKey{0, k.round, k.attempt}]
				z, err := crypto.DecodeScalar(f.servers[si].keyGrp, tr.responses[k][0])
				if chal == nil || err != nil {
					t.Fatalf("server %d round %d: no challenge or response recorded (err %v)", si, k.round, err)
				}
				answers := func(enc []byte) bool {
					R, err := f.servers[si].keyGrp.Decode(enc)
					if err != nil {
						t.Fatal(err)
					}
					return f.servers[si].cert.VerifyPartial(si, R, chal, z) == nil
				}
				if !answers(last) {
					t.Errorf("server %d round %d: the response does not answer the revealed nonce", si, k.round)
				}
				for _, dead := range drawn[:len(drawn)-1] {
					discards++
					// The round the client leaves and the round it returns both miss.
					if k.round != straggleRound && k.round != straggleRound+1 {
						t.Errorf("server %d discarded a nonce in round %d, where the prediction held", si, k.round)
					}
					if revealed[string(dead)] {
						t.Errorf("server %d round %d: a discarded speculative nonce was revealed", si, k.round)
					}
					if answers(dead) {
						t.Errorf("server %d round %d: the response answers a discarded speculative nonce", si, k.round)
					}
				}
			}
		}
		if discards == 0 {
			t.Fatal("no server discarded a speculative commitment; the scenario exercised nothing")
		}
	})

	t.Run("restart", func(t *testing.T) {
		const epoch, target = 12, 14
		d := newDurableFixture(t, epoch)
		f := d.fixture
		vid := f.def.Servers[0].ID
		// Kill the victim the instant it tries to certify the target
		// round: every server has revealed its nonce, the peers have
		// answered theirs, and the round can no longer complete at this
		// attempt — the peers must escalate to the restarted victim's.
		const armed, dead, back = 0, 1, 2
		state := armed
		f.h.Outbound = func(from group.NodeID, m *Message) (time.Duration, bool) {
			if state == armed && from == vid && m.Type == MsgCertify && m.Round == target {
				state = dead
				d.kill(0)
			}
			return 0, state == dead && from == vid
		}
		tr := recordCerts(f)
		f.h.StartAll()
		for i := 0; i < 2_000_000 && state == armed && f.h.Net.Step(); i++ {
		}
		if state != dead {
			t.Fatal("the victim never reached the target round's certify")
		}
		f.step(3000)
		state = back
		d.restart(0)
		f.stepUntilRound(target+3, 4_000_000)
		for _, s := range f.servers {
			if s.Round() <= target+3 {
				t.Fatalf("server %d stuck at round %d after the restart; violations: %v",
					s.Index(), s.Round(), f.violations())
			}
		}
		tr.check(t)

		// Both re-entries ran: every server revealed a nonce for the
		// target round at the original attempt and a different one at
		// the recovery attempt (the victim from RestoreFromStore, the
		// peers from escalateAttempt).
		for si := range f.servers {
			got := tr.attemptsRevealed()[[2]uint64{uint64(si), target}]
			var pre, post bool
			for _, a := range got {
				pre = pre || a <= maxAttempts
				post = post || a > maxAttempts
			}
			if !pre || !post {
				t.Errorf("server %d revealed nonces for round %d in attempts %v, want one before and one after the restart", si, target, got)
			}
		}

		// No snapshot holds a nonce: not a revealed one, and not the
		// secret of any session still open.
		for si, s := range f.servers {
			raw, ok := d.kvs[si].Get(bucketSnapshot, snapshotKey)
			if !ok {
				t.Fatalf("server %d has no snapshot", si)
			}
			for k, ns := range tr.nonces {
				if k.server == si && bytes.Contains(raw, ns[0]) {
					t.Errorf("server %d's snapshot contains its round %d nonce", si, k.round)
				}
			}
			for _, rs := range s.rounds {
				if rs.nonce != nil && bytes.Contains(raw, rs.nonce.Bytes()) {
					t.Errorf("server %d's snapshot contains a live secret nonce", si)
				}
			}
			sn := new(ServerSnapshot)
			if err := wire.DecodeRecord(raw, sn); err != nil || !bytes.Equal(wire.EncodeRecord(sn), raw) {
				t.Errorf("server %d's snapshot holds bytes its codec does not account for (err %v)", si, err)
			}
		}
	})
}
