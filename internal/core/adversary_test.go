package core

import (
	"bytes"
	"math/big"
	"slices"
	"strings"
	"testing"
	"time"

	"dissent/internal/crypto"
	"dissent/internal/dcnet"
	"dissent/internal/group"
	"dissent/internal/wire"
)

// These tests exercise each scripted byzantine behavior class through
// the Options.Interdict hook (the same surface internal/adversary
// compiles to — that package cannot be imported here without a cycle)
// and assert the hardened ingress path both DETECTS the behavior and
// ATTRIBUTES it to the right culprit.

// misbehaviorCount counts EventMisbehavior occurrences whose detail is
// prefixed by kind and whose culprit matches, observed at servers.
func (f *fixture) misbehaviorCount(kind string, culprit group.NodeID) int {
	n := 0
	for _, ev := range f.h.EventsOf(EventMisbehavior) {
		if ev.Culprit == culprit && strings.HasPrefix(ev.Detail, kind+":") {
			n++
		}
	}
	return n
}

// TestRetryPolicyBackoff pins the one retransmission backoff: each
// role's base (serverRetryBase × WindowMin at servers,
// submitResendInterval at clients), doubling per retry up to
// backoffCap × base, a deterministic ±10 % jitter that decorrelates
// seeds, and join requests and roster probes riding it after a fixed
// joinProbeDelay.
func TestRetryPolicyBackoff(t *testing.T) {
	f := newFixture(t, 2, 2, fixtureOpts{})
	for _, tc := range []struct {
		role string
		b    backoff
		base time.Duration
	}{
		{"server", f.servers[0].retry, 8 * f.def.Policy.WindowMin},
		{"client", f.clients[0].retry, 2 * time.Second},
	} {
		if time.Duration(tc.b) != tc.base {
			t.Fatalf("%s: base %v, want %v", tc.role, time.Duration(tc.b), tc.base)
		}
		for a, mult := range []time.Duration{1, 2, 4, 8, 8, 8} {
			d, nominal := tc.b.delay(a, 42), mult*tc.base
			if r := float64(d) / float64(nominal); r < 0.9 || r > 1.1 {
				t.Fatalf("%s: retry %d: delay %v outside %v ± 10 %%", tc.role, a, d, nominal)
			}
			if d != tc.b.delay(a, 42) {
				t.Fatalf("%s: retry %d: delay not deterministic", tc.role, a)
			}
		}
		if tc.b.delay(1, 1) == tc.b.delay(1, 2) && tc.b.delay(2, 1) == tc.b.delay(2, 2) {
			t.Fatalf("%s: jitter ignores the seed", tc.role)
		}
	}

	// Join requests and roster catch-up probes run on the same cast log:
	// a fixed joinProbeDelay before the first retry, the client's backoff
	// from the second on, the same bytes every time.
	t0 := time.Unix(50, 0)
	joinable := f.def.Policy
	joinable.BeaconEpochRounds = 4
	def, err := group.NewDefinition("joinable", f.def.ServerPubKeys(), f.def.ServerMsgPubKeys(),
		[]crypto.Element{f.def.Clients[0].PubKey}, joinable)
	if err != nil {
		t.Fatal(err)
	}
	kp, _ := crypto.GenerateKeyPair(def.Group(), nil)
	joiner, err := NewJoinerClient(def, kp, "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	joinOut, err := joiner.Start(t0)
	if err != nil || len(joinOut.Send) != 1 || joinOut.Send[0].Msg.Type != MsgJoinRequest {
		t.Fatalf("joiner Start: %+v, %v", joinOut, err)
	}
	held, probeOut := f.clients[1], &Output{}
	held.ready = true // as after setup; the probe needs no schedule
	held.awaitRoster(t0, probeOut)
	if len(probeOut.Send) != 0 {
		t.Fatal("a held client probed before the update had a chance to arrive")
	}
	for _, tc := range []struct {
		name  string
		c     *Client
		armed *Output
	}{{"join request", joiner, joinOut}, {"roster probe", held, probeOut}} {
		if !tc.armed.Timer.Equal(t0.Add(joinProbeDelay)) {
			t.Fatalf("%s: first retry at %v, want %v", tc.name, tc.armed.Timer.Sub(t0), joinProbeDelay)
		}
		early, err := tc.c.Tick(t0.Add(joinProbeDelay - time.Millisecond))
		if err != nil || len(early.Send) != 0 || !early.Timer.Equal(t0.Add(joinProbeDelay)) {
			t.Fatalf("%s: tick before the delay: %+v, %v", tc.name, early, err)
		}
		now := t0.Add(joinProbeDelay)
		var body []byte
		for n := 1; n <= 2; n++ {
			out, err := tc.c.Tick(now)
			if err != nil || len(out.Send) != 1 || out.Send[0].Msg.Type != MsgJoinRequest {
				t.Fatalf("%s: retry %d: %+v, %v", tc.name, n, out, err)
			}
			if body != nil && !bytes.Equal(body, out.Send[0].Msg.Body) {
				t.Fatalf("%s: retry %d changed the request", tc.name, n)
			}
			body = out.Send[0].Msg.Body
			if want := tc.c.retry.delay(n, tc.c.retrySeed); !out.Timer.Equal(now.Add(want)) {
				t.Fatalf("%s: retry %d rescheduled after %v, want the backoff's %v", tc.name, n, out.Timer.Sub(now), want)
			}
			now = out.Timer
		}
	}
}

// TestInterdictSlotJamTracedAndExpelled drives the catalog's slot-jam
// shape — a Vector interdict flipping a bit inside the victim's slot
// range before padding/signing — and asserts the full §3.9 pipeline:
// victim detection, accusation, trace, and a client-expelled verdict
// against the jammer at every server, with no honest member blamed. In
// the "silent" row the victim's record fits its slot, so the slot stays
// open with nothing in it, and the jammer flips bits only in rounds where
// the victim's region is silent: the all-zero region the victim recorded
// as sent is what exposes the flip.
func TestInterdictSlotJamTracedAndExpelled(t *testing.T) {
	for _, tc := range []struct {
		name   string
		record []byte
		silent bool // jam only rounds in which the victim's open slot is silent
	}{
		{name: "data", record: bytes.Repeat([]byte("censored speech "), 20)},
		{name: "silent", record: []byte("one short post"), silent: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var victim *Client
			var silentSent []byte // a silent region the victim recorded as sent
			jams := 0
			jam := &Interdict{Vector: func(info VectorInfo, vec []byte) {
				if victim == nil || victim.Slot() < 0 {
					return
				}
				off, n := info.SlotRange(victim.Slot())
				if n <= dcnet.SeedLen+13 {
					return
				}
				if tc.silent {
					// The jammer's links are slower, so the victim has composed
					// this round already: jam it only if it went out silent.
					i := slices.IndexFunc(victim.inflight, func(cr *clientRound) bool { return cr.r == info.Round })
					if i < 0 || !bytes.Equal(victim.inflight[i].sentSlot, make([]byte, n)) {
						return
					}
					silentSent = bytes.Clone(victim.inflight[i].sentSlot)
				}
				vec[off+dcnet.SeedLen+12] ^= 0xFF
				jams++
			}}
			f := newFixture(t, 3, 5, fixtureOpts{
				clientOpts: func(idx int, o *Options) {
					if idx == 4 {
						o.Interdict = jam
					}
				},
			})
			jammer := f.clients[4].ID()
			f.h.Latency = func(from, to group.NodeID) time.Duration {
				if from == jammer || to == jammer {
					return 2 * time.Millisecond
				}
				return time.Millisecond
			}
			victim = f.clients[0]
			victim.Send(tc.record)

			f.runUntilRound(14, 3_000_000)

			if jams == 0 {
				t.Fatal("the jammer never found a round to jam")
			}
			if len(f.h.EventsOf(EventDisruptionDetected)) == 0 {
				t.Error("victim never detected the jam")
			}
			expelled := 0
			for _, v := range f.h.EventsOf(EventBlameVerdict) {
				if v.Culprit != jammer {
					t.Errorf("verdict at %s against honest member %s", v.Node, v.Culprit)
				}
				if f.def.ServerIndex(v.Node) >= 0 {
					expelled++
				}
			}
			if expelled < 3 {
				t.Fatalf("jammer expelled at %d/3 servers; violations: %v", expelled, f.violations())
			}
			for _, s := range f.servers {
				for i := range f.clients {
					if s.Excluded(i) != (i == 4) {
						t.Errorf("server %d: client %d excluded = %v", s.Index(), i, s.Excluded(i))
					}
				}
			}
			if tc.silent {
				// A failed round hands its slot's payload back to the outbox;
				// a silent one carried none.
				pending := victim.Pending()
				victim.requeue(&clientRound{sentSlot: silentSent})
				if victim.Pending() != pending {
					t.Errorf("requeueing a silent round queued %d payloads", victim.Pending()-pending)
				}
			}
		})
	}
}

// flipSentZero sets, in srv's share for round, one bit of victim's slot
// that victim sent as 0: the certified output shows it a 0→1 flip, the
// witness its accusation needs. (Flipping a whole byte finds none when
// the victim sent 0xFF there.) It reports whether it flipped one, which
// it does only while victim's submission for round is in flight.
func flipSentZero(srv *Server, victim *Client, round uint64, share []byte) bool {
	if victim.Slot() < 0 || len(victim.inflight) == 0 {
		return false
	}
	off, n := headLayout(&srv.node).SlotRange(victim.Slot())
	sent := victim.inflight[0].sentSlot
	if n == 0 || victim.inflight[0].r != round || len(sent) != n {
		return false
	}
	for k := range n {
		i := (dcnet.SeedLen + 12 + k) % n
		if zeros := ^sent[i]; zeros != 0 {
			share[off+i] ^= zeros & -zeros
			return true
		}
	}
	return false
}

// TestInterdictCorruptShareExposesServer installs the corrupt-share
// behavior on one server: its commit and share stay consistent, so
// only the blame trace's bit check can pin the garble — and it must
// yield a server-exposed verdict, not a client expulsion.
func TestInterdictCorruptShareExposesServer(t *testing.T) {
	var victim *Client
	var f *fixture
	corrupted := false
	f = newFixture(t, 3, 4, fixtureOpts{
		serverOpts: func(idx int, o *Options) {
			if idx == 2 {
				o.Interdict = &Interdict{Share: func(round uint64, share []byte) {
					if !corrupted && victim != nil {
						corrupted = flipSentZero(f.servers[2], victim, round, share)
					}
				}}
			}
		},
	})
	victim = f.clients[0]
	victim.Send(bytes.Repeat([]byte("exposed traffic "), 20))

	f.runUntilRound(14, 3_000_000)

	if !corrupted {
		t.Fatal("the share interdict never fired")
	}
	exposed := 0
	for _, v := range f.h.EventsOf(EventBlameVerdict) {
		if v.Culprit == f.def.Servers[2].ID && f.def.ServerIndex(v.Node) >= 0 {
			exposed++
		}
	}
	if exposed < 2 {
		t.Fatalf("corrupting server exposed at %d servers; verdicts: %+v violations: %v",
			exposed, f.h.EventsOf(EventBlameVerdict), f.violations())
	}
	for i := range f.clients {
		if f.servers[0].Excluded(i) {
			t.Errorf("client %d was scapegoated for the server's corruption", i)
		}
	}
}

// TestInterdictEquivocatingClientEscalatesToExpulsion: a client that
// double-submits distinct signed ciphertexts every round is provably
// equivocating; the misbehavior ledger must attribute each offense and,
// past the escalation threshold, queue the client for certified
// removal at the next roster boundary.
func TestInterdictEquivocatingClientEscalatesToExpulsion(t *testing.T) {
	const epoch = 6
	equiv := &Interdict{Outbound: func(env Envelope, resign func(*Message) *Message) []Envelope {
		if env.Msg.Type != MsgClientSubmit {
			return []Envelope{env}
		}
		body := append([]byte(nil), env.Msg.Body...)
		body[len(body)-1] ^= 0xFF
		alt := resign(&Message{Type: MsgClientSubmit, Round: env.Msg.Round, Body: body})
		return []Envelope{env, {To: env.To, Msg: alt}}
	}}
	f := newFixture(t, 2, 4, fixtureOpts{
		mutatePolicy: func(p *group.Policy) {
			p.BeaconEpochRounds = epoch
			p.Alpha = 0.5
		},
		clientOpts: func(idx int, o *Options) {
			if idx == 3 {
				o.Interdict = equiv
			}
		},
	})
	f.runUntilRound(4*epoch, 4_000_000)

	culprit := f.clients[3].ID()
	if n := f.misbehaviorCount("equivocation", culprit); n < misbehaviorEscalateThreshold {
		t.Fatalf("equivocation attributed %d times, want >= %d; violations: %v",
			n, misbehaviorEscalateThreshold, f.violations())
	}
	if f.misbehaviorCount("escalated", culprit) == 0 {
		t.Fatal("equivocator never escalated to removal")
	}
	expelled := false
	for _, ev := range f.h.EventsOf(EventMemberExpelled) {
		if ev.Culprit == culprit {
			expelled = true
		}
	}
	if !expelled {
		t.Fatalf("equivocator was not expelled by a certified roster update; violations: %v", f.violations())
	}
	// Honest members keep communicating after the expulsion.
	f.clients[0].Send([]byte("after the expulsion"))
	f.stepUntilRound(f.servers[0].Round()+epoch, 2_000_000)
	found := false
	for _, d := range f.h.Deliveries {
		if string(d.Data) == "after the expulsion" {
			found = true
		}
	}
	if !found {
		t.Fatal("honest traffic did not survive the expulsion")
	}
}

// honestAttributions returns the misbehavior events of the given kind
// that honest servers (every server but byz) raised against anyone
// other than byz — which must stay empty: a collective certificate
// still has to pin a bad contribution on its one author.
func (f *fixture) honestAttributions(kind string, byz int) []TimedEvent {
	var out []TimedEvent
	for _, ev := range f.h.EventsOf(EventMisbehavior) {
		if obs := f.def.ServerIndex(ev.Node); obs < 0 || obs == byz {
			continue
		}
		if ev.Culprit != f.def.Servers[byz].ID && strings.HasPrefix(ev.Detail, kind+":") {
			out = append(out, ev)
		}
	}
	return out
}

// TestInterdictBadCertSigDetected: a server that corrupts its partial
// response inside its MsgCertify (outer envelope re-signed, so only
// payload validation can catch it) is attributed "bad-certificate" by
// every peer — and only it is — and rounds heal once the behavior's
// round range ends.
func TestInterdictBadCertSigDetected(t *testing.T) {
	bad := &Interdict{Outbound: func(env Envelope, resign func(*Message) *Message) []Envelope {
		if env.Msg.Type != MsgCertify || env.Msg.Round < 1 || env.Msg.Round > 2 {
			return []Envelope{env}
		}
		body := append([]byte(nil), env.Msg.Body...)
		body[len(body)-1] ^= 0xFF
		return []Envelope{{To: env.To, Msg: resign(&Message{Type: MsgCertify, Round: env.Msg.Round, Body: body})}}
	}}
	f := newFixture(t, 3, 3, fixtureOpts{
		serverOpts: func(idx int, o *Options) {
			if idx == 1 {
				o.Interdict = bad
			}
		},
	})
	f.runUntilRound(6, 3_000_000)

	if n := f.misbehaviorCount("bad-certificate", f.def.Servers[1].ID); n == 0 {
		t.Fatalf("bad certificate never attributed; violations: %v", f.violations())
	}
	if wrong := f.honestAttributions("bad-certificate", 1); len(wrong) > 0 {
		t.Fatalf("bad certificate pinned on an honest server: %+v", wrong)
	}
	if got := f.servers[0].Round(); got <= 6 {
		t.Fatalf("rounds did not heal after the behavior window: at %d", got)
	}
}

// TestInterdictNonceSwapIsEquivocation: a server that reveals, in its
// MsgShare, a certificate nonce other than the one its MsgCommit
// committed to — the move an adaptive signer would need — is caught at
// the commitment check, as "equivocation", by every peer, before
// anyone answers a challenge that includes the swapped nonce.
func TestInterdictNonceSwapIsEquivocation(t *testing.T) {
	testRevealSwapIsEquivocation(t, func(p *Share) {
		g := crypto.P256()
		p.Nonce = g.Encode(g.BaseMult(big.NewInt(7))) // a valid point, just not the committed one
	})
}

// TestInterdictShareSwapIsEquivocation: the same for the other half of
// the commitment — a server that reveals a DC-net share other than the
// one it committed to (adapting it to its peers' would let it steer the
// cleartext) is caught at the commitment check, before combining.
func TestInterdictShareSwapIsEquivocation(t *testing.T) {
	testRevealSwapIsEquivocation(t, func(p *Share) {
		p.CT = bytes.Clone(p.CT)
		p.CT[len(p.CT)/2] ^= 0x10
	})
}

// testRevealSwapIsEquivocation has server 1 reveal, in the attack
// round, a correctly signed MsgShare that swap altered after the commit
// went out, and asserts every honest peer's verdict.
func testRevealSwapIsEquivocation(t *testing.T, swap func(*Share)) {
	const attackRound = 2
	reveal := &Interdict{Outbound: func(env Envelope, resign func(*Message) *Message) []Envelope {
		if env.Msg.Type != MsgShare || env.Msg.Round != attackRound {
			return []Envelope{env}
		}
		p, err := decode[Share](env.Msg.Body)
		if err != nil {
			t.Errorf("honest engine produced an undecodable share: %v", err)
			return []Envelope{env}
		}
		swap(p)
		return []Envelope{{To: env.To, Msg: resign(&Message{Type: MsgShare, Round: env.Msg.Round, Body: wire.Encode(p)})}}
	}}
	f := newFixture(t, 3, 3, fixtureOpts{
		serverOpts: func(idx int, o *Options) {
			if idx == 1 {
				o.Interdict = reveal
			}
		},
	})
	tr := recordCerts(f)
	// The round cannot complete — its commitments are broken for good —
	// so run a bounded stretch past the attack instead of to a round.
	f.h.StartAll()
	f.stepUntilRound(attackRound-1, 2_000_000)
	f.step(4000)

	culprit := f.def.Servers[1].ID
	for _, obs := range []int{0, 2} {
		seen := false
		for _, ev := range f.h.EventsOf(EventMisbehavior) {
			if ev.Node == f.def.Servers[obs].ID && ev.Culprit == culprit && strings.HasPrefix(ev.Detail, "equivocation:") {
				seen = true
			}
		}
		if !seen {
			t.Errorf("server %d never attributed the swapped reveal; violations: %v", obs, f.violations())
		}
	}
	if wrong := f.honestAttributions("equivocation", 1); len(wrong) > 0 {
		t.Fatalf("swapped reveal pinned on an honest server: %+v", wrong)
	}
	for k := range tr.responses {
		if k.round == attackRound && k.server != 1 {
			t.Errorf("server %d answered a challenge in the round with the swapped reveal", k.server)
		}
	}
}

// TestInterdictWithholdingSuspected: a server that silently drops one
// of its round broadcasts wedges the round — in an anytrust group no
// round completes without every server's contribution, so a
// forever-silent server halts the group by design. The test drops the
// first several transmissions of round 1's MsgShare, or of its
// MsgInventory (which in steady state is the commit too, so the peers
// sit in the inventory phase holding no commitment from it): after the
// retransmission backoff runs out of patience the waiting peers must
// attribute "withholding" to exactly the silent server, and the round
// must heal once the server's own backoff rebroadcast — the whole cast
// sequence, merged inventory first — finally passes the interdict.
func TestInterdictWithholdingSuspected(t *testing.T) {
	for _, withheld := range []MsgType{MsgShare, MsgInventory} {
		t.Run(withheld.String(), func(t *testing.T) {
			dropped := 0
			withhold := &Interdict{Outbound: func(env Envelope, resign func(*Message) *Message) []Envelope {
				if env.Msg.Type == withheld && env.Msg.Round == 1 && dropped < 8 {
					dropped++
					return nil
				}
				return []Envelope{env}
			}}
			f := newFixture(t, 3, 3, fixtureOpts{
				serverOpts: func(idx int, o *Options) {
					if idx == 2 {
						o.Interdict = withhold
					}
				},
			})
			tap := tapWire(f)
			f.runUntilRound(6, 3_000_000)

			silent := f.def.Servers[2].ID
			if n := f.misbehaviorCount("withholding", silent); n == 0 {
				t.Fatalf("withholding never attributed; violations: %v", f.violations())
			}
			// No HONEST server may accuse another honest server. (The byzantine
			// server itself is free to emit bogus accusations — it is wedged
			// waiting on peers its own withholding wedged — which is exactly why
			// consumers must weigh accusations by observer.)
			for _, ev := range f.h.EventsOf(EventMisbehavior) {
				obs := f.def.ServerIndex(ev.Node)
				acc := f.def.ServerIndex(ev.Culprit)
				if obs >= 0 && obs != 2 && acc >= 0 && acc != 2 && strings.HasPrefix(ev.Detail, "withholding:") {
					t.Errorf("honest server %d attributed withholding to honest server %d", obs, acc)
				}
			}
			if got := f.servers[0].Round(); got <= 6 {
				t.Fatalf("rounds did not heal after the withholding window: at %d", got)
			}
			// The resent inventory still carries the round's one commitment:
			// the wedge heals on the speculative path, not by falling back.
			if tap.explicit(1) {
				t.Errorf("round 1 ran the explicit commit exchange after the resend")
			}
		})
	}
}

// TestInterdictReplayFloodDetected: identical duplicates are tolerated
// up to the per-round allowance (honest retransmission), then
// attributed as "replay".
func TestInterdictReplayFloodDetected(t *testing.T) {
	replay := &Interdict{Outbound: func(env Envelope, resign func(*Message) *Message) []Envelope {
		if env.Msg.Type != MsgClientSubmit {
			return []Envelope{env}
		}
		out := make([]Envelope, 0, dupFloodAllowance+4)
		for i := 0; i < dupFloodAllowance+4; i++ {
			out = append(out, env)
		}
		return out
	}}
	f := newFixture(t, 2, 3, fixtureOpts{
		clientOpts: func(idx int, o *Options) {
			if idx == 2 {
				o.Interdict = replay
			}
		},
	})
	f.runUntilRound(4, 2_000_000)

	if n := f.misbehaviorCount("replay", f.clients[2].ID()); n == 0 {
		t.Fatalf("replay flood never attributed; violations: %v", f.violations())
	}
	if got := f.servers[0].Round(); got <= 4 {
		t.Fatalf("rounds wedged under the replay flood: at %d", got)
	}
}

// TestInterdictMalformedDetected: an authentically-signed frame whose
// body is garbage must be attributed "malformed" to its sender, and
// the session must ride through (the slot simply stays unproven that
// round).
func TestInterdictMalformedDetected(t *testing.T) {
	malform := &Interdict{Outbound: func(env Envelope, resign func(*Message) *Message) []Envelope {
		if env.Msg.Type != MsgClientSubmit || env.Msg.Round < 1 || env.Msg.Round > 2 {
			return []Envelope{env}
		}
		body := make([]byte, len(env.Msg.Body))
		for i := range body {
			body[i] = byte(i * 31)
		}
		return []Envelope{{To: env.To, Msg: resign(&Message{Type: MsgClientSubmit, Round: env.Msg.Round, Body: body})}}
	}}
	f := newFixture(t, 2, 3, fixtureOpts{
		mutatePolicy: func(p *group.Policy) { p.Alpha = 0.5 },
		clientOpts: func(idx int, o *Options) {
			if idx == 1 {
				o.Interdict = malform
			}
		},
	})
	f.runUntilRound(6, 3_000_000)

	if n := f.misbehaviorCount("malformed", f.clients[1].ID()); n == 0 {
		t.Fatalf("malformed frames never attributed; violations: %v", f.violations())
	}
	if got := f.servers[0].Round(); got <= 6 {
		t.Fatalf("rounds did not heal after the malform window: at %d", got)
	}
}
