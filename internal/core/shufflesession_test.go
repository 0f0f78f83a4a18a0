package core

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"dissent/internal/crypto"
	"dissent/internal/group"
	"dissent/internal/shuffle"
	"dissent/internal/wire"
)

// shuffleRig drives the M server engines of a fixture by hand — no
// harness, no clients — so a test decides which shuffle-session message
// reaches which server when. Server-to-server envelopes the engines emit
// land in held; deliver hands one over and files what it provokes.
type shuffleRig struct {
	t       *testing.T
	f       *fixture
	now     time.Time
	held    []Envelope
	outputs map[int][]shuffle.Vec // server index -> what its session finished with
}

// newShuffleRig builds an m-server, n-client fixture and points every
// server's live session of the given kind at the rig: the scheduling
// session each server is born with, or an accusation session opened
// through startBlame.
func newShuffleRig(t *testing.T, m, n int, blame bool) *shuffleRig {
	r := &shuffleRig{t: t, f: newFixture(t, m, n, fixtureOpts{}), now: time.Unix(100, 0),
		outputs: make(map[int][]shuffle.Vec)}
	for i, s := range r.f.servers {
		ss := s.setup
		if blame {
			if _, err := s.startBlame(r.now); err != nil {
				t.Fatal(err)
			}
			ss = s.blame.shuf
		}
		ss.closeAt = r.now.Add(time.Hour)
		ss.finished = func(_ time.Time, outputs []shuffle.Vec) (*Output, error) {
			r.outputs[i] = outputs
			return &Output{}, nil
		}
	}
	return r
}

func (r *shuffleRig) session(si int) *shuffleSession {
	s, _ := r.f.servers[si].shuffleFor(r.listType())
	return s
}

func (r *shuffleRig) listType() MsgType {
	if r.f.servers[0].blame != nil {
		return MsgBlameList
	}
	return MsgPseudonymList
}

// deliver hands m to server si and returns the engine's output, holding
// back the server-to-server envelopes in it.
func (r *shuffleRig) deliver(si int, m *Message) *Output {
	r.t.Helper()
	out, err := r.f.servers[si].Handle(r.now, m)
	if err != nil {
		r.t.Fatalf("server %d handling %s: %v", si, m.Type, err)
	}
	for _, env := range out.Send {
		if r.f.def.ServerIndex(env.To) >= 0 {
			r.held = append(r.held, env)
		}
	}
	return out
}

// take removes and returns the held envelope of type t from server
// `from` to server `to`.
func (r *shuffleRig) take(t MsgType, from, to int) *Message {
	r.t.Helper()
	for i, env := range r.held {
		if env.Msg.Type == t && env.Msg.From == r.f.def.Servers[from].ID && env.To == r.f.def.Servers[to].ID {
			r.held = append(r.held[:i], r.held[i+1:]...)
			return env.Msg
		}
	}
	r.t.Fatalf("no held %s from server %d to server %d", t, from, to)
	return nil
}

// flush delivers held envelopes, and whatever they provoke, until none
// are left.
func (r *shuffleRig) flush() {
	r.t.Helper()
	for len(r.held) > 0 {
		env := r.held[0]
		r.held = r.held[1:]
		r.deliver(r.f.def.ServerIndex(env.To), env.Msg)
	}
}

// submit has client ci submit the plaintext elements to its home server
// through the session's submit type, onion-encrypted to pubs.
func (r *shuffleRig) submit(ci int, grp crypto.Group, pubs []crypto.Element, plain []crypto.Element) *Output {
	r.t.Helper()
	vec, err := shuffle.PrepareInput(grp, pubs, plain, nil)
	if err != nil {
		r.t.Fatal(err)
	}
	var ct []byte
	for _, c := range vec {
		ct = append(ct, crypto.EncodeCiphertext(grp, c)...)
	}
	home := r.f.def.UpstreamServer(ci)
	ss := r.session(home)
	m, err := r.f.clients[ci].sign(ss.submitT, ss.round, wire.Encode(&ShuffleSubmit{Session: ss.id, CT: ct}))
	if err != nil {
		r.t.Fatal(err)
	}
	return r.deliver(home, m)
}

func (r *shuffleRig) serverKPs(msg bool) []*crypto.KeyPair {
	kps := make([]*crypto.KeyPair, len(r.f.servers))
	for i, mem := range r.f.def.Servers {
		if msg {
			kps[i] = r.f.msgKPByIdx[i]
		} else {
			kps[i] = r.f.kpByID[mem.ID]
		}
	}
	return kps
}

// TestShuffleSessionMatchesReferenceShuffle is the differential test of
// the one driver: the same inputs through M in-core engines' sessions
// and through the shuffle package's single-process pipeline give the
// same output multiset at every server — for a width-1 key shuffle on
// P-256 (setup's use) and a blameWidth message shuffle on the small
// mod-p group (blame's use).
func TestShuffleSessionMatchesReferenceShuffle(t *testing.T) {
	const m, n = 3, 5
	t.Run("key shuffle P-256 width 1", func(t *testing.T) {
		r := newShuffleRig(t, m, n, false)
		g := r.f.def.Group()
		keys := make([]crypto.Element, n)
		for i := range keys {
			kp, _ := crypto.GenerateKeyPair(g, nil)
			keys[i] = kp.Public
			r.submit(i, g, r.f.def.ServerPubKeys(), []crypto.Element{keys[i]})
		}
		r.flush()
		ref, err := shuffle.KeyShuffle(g, r.serverKPs(false), keys, nil)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, k := range ref {
			want = append(want, string(g.Encode(k)))
		}
		slices.Sort(want)
		for si := 0; si < m; si++ {
			var got []string
			for _, v := range r.outputs[si] {
				if len(v) != 1 {
					t.Fatalf("server %d: output vector width %d", si, len(v))
				}
				got = append(got, string(g.Encode(v[0].C2)))
			}
			if slices.Sort(got); !slices.Equal(got, want) {
				t.Errorf("server %d: session output multiset differs from shuffle.KeyShuffle's", si)
			}
		}
	})
	t.Run("message shuffle modp-512-test width blameWidth", func(t *testing.T) {
		r := newShuffleRig(t, m, n, true)
		g := r.f.servers[0].msgGrp
		width := r.f.servers[0].blameWidth()
		if width < 2 {
			t.Fatalf("blameWidth %d: the small group should need several elements per accusation", width)
		}
		msgs := make([][]byte, n)
		for i := range msgs {
			msgs[i] = bytes.Repeat([]byte{byte('a' + i)}, accusationLen(r.f.def.Group()))
			elems, err := shuffle.EmbedMessage(g, msgs[i], width, nil)
			if err != nil {
				t.Fatal(err)
			}
			r.submit(i, g, r.f.def.ServerMsgPubKeys(), elems)
		}
		r.flush()
		ref, err := shuffle.MessageShuffle(g, r.serverKPs(true), msgs, width, nil)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, msg := range ref {
			want = append(want, string(msg))
		}
		slices.Sort(want)
		for si := 0; si < m; si++ {
			var got []string
			for _, v := range r.outputs[si] {
				elems := make([]crypto.Element, len(v))
				for c, ct := range v {
					elems[c] = ct.C2
				}
				msg, err := shuffle.ExtractMessage(g, elems)
				if err != nil {
					t.Fatalf("server %d: %v", si, err)
				}
				got = append(got, string(msg))
			}
			if slices.Sort(got); !slices.Equal(got, want) {
				t.Errorf("server %d: session output multiset differs from shuffle.MessageShuffle's", si)
			}
		}
	})
}

// TestShuffleSessionDeliveryOrder pins what the driver does with a
// message that arrives out of turn — stash, drop or violation — for both
// uses, exactly as the two hand-written state machines it replaced did.
func TestShuffleSessionDeliveryOrder(t *testing.T) {
	for _, blame := range []bool{false, true} {
		name := "setup"
		if blame {
			name = "blame"
		}
		t.Run(name, func(t *testing.T) {
			const m, n = 3, 3
			r := newShuffleRig(t, m, n, blame)
			grp, pubs := r.session(0).grp, r.session(0).pubs
			listT, stepT := r.session(0).listT, r.session(0).stepT
			if blame {
				// An accusation window closes on the first peer list; hold it
				// open so the lists below arrive in the order the rows say.
				for si := range r.f.servers {
					r.session(si).followPeers = false
				}
			}
			for ci := 0; ci < n; ci++ {
				plain := make([]crypto.Element, r.session(0).width)
				for c := range plain {
					plain[c], _ = grp.RandomElement(nil)
				}
				r.submit(ci, grp, pubs, plain)
			}
			// Every server's window closed early (one client each) and its
			// list is held. Servers 0 and 2 learn every list; server 1 is
			// missing server 2's.
			stashed := func(si int) int { return len(r.f.servers[si].stash) }
			violations := func(out *Output) int {
				k := 0
				for _, e := range out.Events {
					if e.Kind == EventProtocolViolation {
						k++
					}
				}
				return k
			}
			quiet := func(what string, si int, out *Output, stashBefore int) {
				t.Helper()
				if len(out.Events) != 0 || len(out.Send) != 0 || stashed(si) != stashBefore {
					t.Errorf("%s: want a silent drop, got events %v, %d sends, stash %d -> %d",
						what, out.Events, len(out.Send), stashBefore, stashed(si))
				}
			}
			r.deliver(0, r.take(listT, 1, 0))
			r.deliver(0, r.take(listT, 2, 0)) // server 0 starts and runs stage 0
			r.deliver(2, r.take(listT, 0, 2))
			r.deliver(2, r.take(listT, 1, 2))
			list01 := r.take(listT, 0, 1)
			r.deliver(1, list01)
			if r.session(0).stage != 1 || !r.session(2).started || r.session(1).started {
				t.Fatalf("precondition: stages %d/%d/%d", r.session(0).stage, r.session(1).stage, r.session(2).stage)
			}

			// Duplicate list: dropped, and it does not count towards M.
			before := stashed(1)
			quiet("duplicate list", 1, r.deliver(1, list01), before)
			if r.session(1).started {
				t.Error("duplicate list started the shuffle")
			}

			// Step before lists: server 1 cannot check stage 0 yet — stash.
			step0to1 := r.take(stepT, 0, 1)
			out := r.deliver(1, step0to1)
			if stashed(1) != before+1 || len(out.Events) != 0 {
				t.Fatalf("step before lists: stash %d -> %d, events %v", before, stashed(1), out.Events)
			}
			// The missing list arrives: the stashed step replays, server 1
			// verifies stage 0 and runs stage 1.
			r.deliver(1, r.take(listT, 2, 1))
			if stashed(1) != 0 || r.session(1).stage != 2 {
				t.Fatalf("after the last list: stash %d, stage %d", stashed(1), r.session(1).stage)
			}

			// Step one stage ahead: server 2 gets stage 1 before stage 0.
			step1to2 := r.take(stepT, 1, 2)
			before = stashed(2)
			out = r.deliver(2, step1to2)
			if stashed(2) != before+1 || len(out.Events) != 0 || r.session(2).stage != 0 {
				t.Fatalf("step one stage ahead: stash %d -> %d, events %v, stage %d",
					before, stashed(2), out.Events, r.session(2).stage)
			}

			// Step from the wrong server index: stage 0's body signed by
			// server 1 — dropped, stage unmoved.
			step0to2 := r.take(stepT, 0, 2)
			forged, err := r.f.servers[1].sign(stepT, step0to2.Round, step0to2.Body)
			if err != nil {
				t.Fatal(err)
			}
			before = stashed(2)
			quiet("step from the wrong server", 2, r.deliver(2, forged), before)

			// A stage-0 step whose proof does not verify: a violation, and
			// the stage does not move.
			p, _ := decode[ShuffleStep](step0to2.Body)
			bad := append([]byte(nil), p.Data...)
			bad[len(bad)-1] ^= 1
			tampered, err := r.f.servers[0].sign(stepT, step0to2.Round,
				wire.Encode(&ShuffleStep{Session: p.Session, Stage: p.Stage, Data: bad}))
			if err != nil {
				t.Fatal(err)
			}
			if out = r.deliver(2, tampered); violations(out) != 1 || r.session(2).stage != 0 {
				t.Fatalf("invalid step: events %v, stage %d", out.Events, r.session(2).stage)
			}

			// The genuine stage 0 arrives: it and the stashed stage 1 apply,
			// server 2 runs the last stage and finishes.
			r.deliver(2, step0to2)
			if stashed(2) != 0 || r.outputs[2] == nil {
				t.Fatalf("server 2 did not finish: stash %d", stashed(2))
			}
			r.flush()
			for si := 0; si < m; si++ {
				if len(r.outputs[si]) != n {
					t.Errorf("server %d finished with %d outputs, want %d", si, len(r.outputs[si]), n)
				}
			}

			// Stale step: a replay of a finished session's step is dropped,
			// not stashed — for the accusation shuffle also once a newer
			// session is open.
			before = stashed(2)
			quiet("replayed step of the finished session", 2, r.deliver(2, step0to2), before)
			if blame {
				s2 := r.f.servers[2]
				s2.blame = nil // the verdict closed session 1
				if r.deliver(2, step0to2); stashed(2) != before+1 {
					t.Errorf("step of the newest session with none open: want stash (as before), stash %d -> %d", before, stashed(2))
				}
				s2.stash, s2.stashBytes = nil, 0
				if _, err := s2.startBlame(r.now); err != nil { // session 2
					t.Fatal(err)
				}
				quiet("stale-session step", 2, r.deliver(2, step0to2), 0)
				ahead, _ := r.f.servers[0].sign(stepT, step0to2.Round,
					wire.Encode(&ShuffleStep{Session: 3, Stage: 0, Data: p.Data}))
				if out = r.deliver(2, ahead); stashed(2) != 1 || len(out.Events) != 0 {
					t.Errorf("step of a session not open here yet: want stash, got stash %d events %v", stashed(2), out.Events)
				}
			}
		})
	}
}

// TestSetupSurvivesMalformedPseudonym is the regression test for the
// setup wedge: one correctly signed client whose pseudonym ciphertext is
// not a pair of curve points used to stop every server in the scheduling
// shuffle for good (a fatal engine error after the shuffle input was
// latched, no event naming anyone). Now its home server books it as
// malformed on arrival and the other clients get their schedule.
func TestSetupSurvivesMalformedPseudonym(t *testing.T) {
	garbage := &Interdict{Outbound: func(env Envelope, resign func(*Message) *Message) []Envelope {
		if env.Msg.Type != MsgPseudonymSubmit {
			return []Envelope{env}
		}
		mm := *env.Msg
		mm.Body = wire.Encode(&ShuffleSubmit{CT: bytes.Repeat([]byte{0xFF}, 66)})
		return []Envelope{{To: env.To, Msg: resign(&mm)}}
	}}
	f := newFixture(t, 3, 4, fixtureOpts{clientOpts: func(idx int, o *Options) {
		if idx == 0 {
			o.Interdict = garbage
		}
	}})
	f.h.StartAll()
	certified := func() bool {
		for _, s := range f.servers {
			if s.Round() < 3 {
				return false
			}
		}
		return true
	}
	for steps := 0; steps < 2_000_000 && !certified() && f.h.Net.Step(); steps++ {
	}

	bad := f.clients[0].ID()
	for _, err := range f.h.Errors {
		// Client 0 itself learns it has no slot; nobody else may fail.
		if !strings.Contains(err.Error(), "our pseudonym key is missing from the schedule") {
			t.Errorf("harness error: %v", err)
		}
	}
	ready := make(map[group.NodeID]string)
	for _, e := range f.h.EventsOf(EventScheduleReady) {
		ready[e.Node] = e.Detail
	}
	for i, c := range f.clients[1:] {
		if !strings.HasSuffix(ready[c.ID()], " of 3") {
			t.Errorf("client %d: schedule-ready %q, want a slot of 3", i+1, ready[c.ID()])
		}
	}
	if _, ok := ready[bad]; ok {
		t.Error("the malformed submitter was scheduled")
	}
	for i, s := range f.servers {
		if ready[s.ID()] != "3 slots" {
			t.Errorf("server %d: schedule-ready %q, want 3 slots", i, ready[s.ID()])
		}
		if s.Round() < 3 {
			t.Errorf("server %d stuck at round %d", i, s.Round())
		}
	}
	// The ledger names client 0, once, at its home server — and no other
	// client. (Its home server then waits out every window for it, which
	// the peers may note as that server's silence; not this test's
	// subject.)
	malformed := 0
	for _, e := range f.h.EventsOf(EventMisbehavior) {
		isMalformed := strings.HasPrefix(e.Detail, "malformed: ")
		if isMalformed {
			malformed++
		}
		if f.def.ClientIndex(e.Culprit) > 0 || isMalformed != (e.Culprit == bad) {
			t.Errorf("unexpected misbehavior event %+v", e.Event)
		}
	}
	home := f.servers[f.def.UpstreamServer(0)]
	if malformed != 1 || home.MisbehaviorCounts()["malformed"] != 1 {
		t.Errorf("ledger: %d malformed events, home server counts %v; want client 0 booked once",
			malformed, home.MisbehaviorCounts())
	}
}

// TestShuffleUnionDropsForwardedGarbage: a peer server that lists an
// undecodable or wrong-width input has it dropped at union time, by the
// same rule at every server and in both uses, and is named for it; the
// shuffle starts on the rest instead of failing the engine.
func TestShuffleUnionDropsForwardedGarbage(t *testing.T) {
	for _, blame := range []bool{false, true} {
		r := newShuffleRig(t, 3, 3, blame)
		grp, pubs, listT := r.session(0).grp, r.session(0).pubs, r.session(0).listT
		for ci := 0; ci < 3; ci++ {
			plain := make([]crypto.Element, r.session(0).width)
			for c := range plain {
				plain[c], _ = grp.RandomElement(nil)
			}
			r.submit(ci, grp, pubs, plain)
		}
		// Server 1's list reaches its peers with its one entry replaced by
		// bytes of the right length that are not group elements, and an
		// entry of the wrong width added for a client nobody else lists.
		orig := r.take(listT, 1, 0)
		r.take(listT, 1, 2)
		p, err := decode[ShuffleList](orig.Body)
		if err != nil || len(p.CTs) != 1 {
			t.Fatalf("server 1 list: %v, %d entries", err, len(p.CTs))
		}
		p.CTs[0] = bytes.Repeat([]byte{0xFF}, len(p.CTs[0]))
		p.Clients = append(p.Clients, 77)
		p.CTs = append(p.CTs, []byte("short"))
		forged, err := r.f.servers[1].sign(listT, orig.Round, wire.Encode(p))
		if err != nil {
			t.Fatal(err)
		}
		r.deliver(0, forged)
		r.deliver(0, r.take(listT, 2, 0))
		r.deliver(2, forged)
		r.deliver(2, r.take(listT, 0, 2))
		for _, si := range []int{0, 2} {
			ss := r.session(si)
			if !ss.started || len(ss.cur) != 2 {
				t.Errorf("blame=%v server %d: started=%v with %d inputs, want the 2 that decode", blame, si, ss.started, len(ss.cur))
			}
			if got := r.f.servers[si].MisbehaviorCounts()["malformed"]; got != 2 {
				t.Errorf("blame=%v server %d: %d malformed entries booked against the forwarder, want 2", blame, si, got)
			}
		}
	}
}
