package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"dissent/internal/dcnet"
	"dissent/internal/group"
	"dissent/internal/store"
	"dissent/internal/wire"
)

// disruptorClient wraps an honest Client engine and flips bits inside
// a victim's message slot in every ciphertext it submits — the §3.9
// adversary. Flipping ciphertext bits flips the same cleartext bits
// because all DC-net layers are stream XORs.
type disruptorClient struct {
	*Client
	victim *Client // to locate the victim's slot in the shared layout
}

func (d *disruptorClient) Start(now time.Time) (*Output, error) {
	out, err := d.Client.Start(now)
	return d.mangle(out), err
}

func (d *disruptorClient) Handle(now time.Time, m *Message) (*Output, error) {
	out, err := d.Client.Handle(now, m)
	return d.mangle(out), err
}

func (d *disruptorClient) mangle(out *Output) *Output {
	if out == nil || d.victim.Slot() < 0 || !d.Client.ready {
		return out
	}
	vslot := d.victim.Slot()
	off, n := headLayout(&d.Client.node).SlotRange(vslot)
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
		// Corrupt one byte of the victim's slot body (past the seed and
		// header, so the schedule fields still parse and the victim's
		// shuffle request survives).
		target := off + dcnet.SeedLen + 12
		if target >= off+n {
			target = off + n - 1
		}
		ct[target] ^= 0xFF
		body := wire.Encode(&ClientSubmit{CT: ct})
		msg, err := d.Client.sign(MsgClientSubmit, env.Msg.Round, body)
		if err != nil {
			continue
		}
		out.Send[i] = Envelope{To: env.To, Msg: msg}
	}
	return out
}

// TestVerdictPersistsExpulsion pins the snapshot a verdict writes: each
// server's stored restart snapshot must list the culprit as excluded
// the moment its EventBlameVerdict fires, before its next round
// retirement would persist one anyway — a crash in that gap must not
// bring the culprit back.
func TestVerdictPersistsExpulsion(t *testing.T) {
	dir := t.TempDir()
	kvs := make([]*store.KV, 3)
	for i := range kvs {
		kv, err := store.Open(filepath.Join(dir, fmt.Sprintf("srv%d.kv", i)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { kv.Close() })
		kvs[i] = kv
	}
	f := newFixture(t, 3, 5, fixtureOpts{
		serverOpts: func(idx int, o *Options) { o.StateStore = kvs[idx] },
	})
	disruptor := &disruptorClient{Client: f.clients[4], victim: f.clients[0]}
	f.h.AddNode(f.clients[4].ID(), disruptor, 0)
	f.clients[0].Send(bytes.Repeat([]byte("censored speech "), 20))
	f.h.StartAll()

	checked := make(map[group.NodeID]bool)
	seen := 0
	for steps := 0; len(checked) < len(f.servers) && steps < 3_000_000; steps++ {
		if !f.h.Net.Step() {
			break
		}
		// A step is one engine call, so a verdict is checked before the
		// server's next retirement.
		for ; seen < len(f.h.Events); seen++ {
			e := f.h.Events[seen]
			si := f.def.ServerIndex(e.Node)
			if e.Kind != EventBlameVerdict || si < 0 || checked[e.Node] {
				continue
			}
			checked[e.Node] = true
			ci := f.def.ClientIndex(e.Culprit)
			if ci < 0 {
				t.Fatalf("server %d verdict %q names no client", si, e.Detail)
			}
			raw, ok := kvs[si].Get(bucketSnapshot, snapshotKey)
			if !ok {
				t.Fatalf("server %d: no stored snapshot at the verdict", si)
			}
			sn, err := decode[ServerSnapshot](raw)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(sn.ExpelIdx, int32(ci)) {
				t.Errorf("server %d: snapshot at the verdict excludes %v, want culprit %d", si, sn.ExpelIdx, ci)
			}
		}
	}
	if len(checked) < len(f.servers) {
		t.Fatalf("verdicts at %d/%d servers; violations: %v", len(checked), len(f.servers), f.violations())
	}
}

func TestDisruptorClientTracedAndExpelled(t *testing.T) {
	var disruptor *disruptorClient
	f := newFixture(t, 3, 5, fixtureOpts{})
	// Client 4 disrupts client 0's slot.
	disruptor = &disruptorClient{Client: f.clients[4], victim: f.clients[0]}
	f.h.AddNode(f.clients[4].ID(), disruptor, 0) // replace engine

	// The victim transmits across several rounds so its slot is open.
	f.clients[0].Send(bytes.Repeat([]byte("censored speech "), 20))

	f.runUntilRound(14, 3_000_000)

	// Every server reaches a verdict expelling the disruptor.
	verdicts := f.h.EventsOf(EventBlameVerdict)
	expelled := 0
	for _, v := range verdicts {
		if v.Culprit == f.clients[4].ID() && f.def.ServerIndex(v.Node) >= 0 {
			expelled++
		}
	}
	if expelled < 3 {
		t.Fatalf("disruptor expelled at %d/3 servers; verdicts: %+v violations: %v",
			expelled, verdicts, f.violations())
	}
	for _, s := range f.servers {
		if !s.Excluded(4) {
			t.Errorf("server %d did not exclude the disruptor", s.Index())
		}
	}
	// The victim detected the disruption.
	if len(f.h.EventsOf(EventDisruptionDetected)) == 0 {
		t.Error("victim never detected the disruption")
	}
	// After expulsion, rounds keep completing.
	found := false
	var verdictAt time.Time
	for _, v := range verdicts {
		verdictAt = v.At
	}
	for _, e := range f.h.EventsOf(EventRoundComplete) {
		if e.At.After(verdictAt) {
			found = true
			break
		}
	}
	if !found {
		t.Error("no rounds completed after the verdict")
	}
}

func TestDisruptingServerExposedByRebuttal(t *testing.T) {
	var f *fixture
	corrupted := false
	var corruptedRound uint64
	corrupt := &Interdict{Share: func(round uint64, share []byte) {
		if !corrupted && flipSentZero(f.servers[2], f.clients[0], round, share) {
			corrupted = true
			corruptedRound = round
		}
	}}
	f = newFixture(t, 3, 4, fixtureOpts{serverOpts: func(idx int, o *Options) {
		if idx == 2 {
			o.Interdict = corrupt
		}
	}})
	victim := f.clients[0]
	scapegoat := 1 // client index the lying server blames
	mal := f.servers[2]
	mal.testTraceBit = func(round uint64, clientIdx int, trueBit byte) byte {
		// Shift the unmatched bit onto the scapegoat so check (b)
		// passes and suspicion lands on an honest client.
		if round == corruptedRound && clientIdx == scapegoat {
			return trueBit ^ 1
		}
		return trueBit
	}

	victim.Send(bytes.Repeat([]byte("persistent message "), 15))
	f.runUntilRound(14, 3_000_000)

	if !corrupted {
		t.Fatal("malicious server never corrupted a share (victim slot never open?)")
	}
	// Honest servers must expose the malicious server, not the
	// scapegoat client.
	exposed := 0
	for _, v := range f.h.EventsOf(EventBlameVerdict) {
		if v.Culprit == mal.ID() {
			exposed++
		}
		if v.Culprit == f.clients[scapegoat].ID() {
			t.Fatalf("honest scapegoat expelled: %+v", v)
		}
	}
	if exposed == 0 {
		t.Fatalf("malicious server never exposed; verdicts: %+v violations: %v",
			f.h.EventsOf(EventBlameVerdict), f.violations())
	}
	for _, s := range f.servers {
		if s.Excluded(scapegoat) {
			t.Error("scapegoat client wrongly excluded")
		}
	}
}

func TestClientChurnToleratedWithinRound(t *testing.T) {
	f := newFixture(t, 2, 5, fixtureOpts{
		mutatePolicy: func(p *group.Policy) {
			p.Alpha = 0.5
			p.WindowThreshold = 0.6
			p.HardTimeout = 5 * time.Second
		},
	})
	// Client 3 goes offline from round 3 on.
	offline := f.clients[3].ID()
	f.h.Outbound = func(from group.NodeID, m *Message) (time.Duration, bool) {
		if from == offline && m.Type == MsgClientSubmit && m.Round >= 3 {
			return 0, true
		}
		return 0, false
	}
	f.clients[1].Send([]byte("before churn"))
	f.runUntilRound(8, 2_000_000)

	for _, s := range f.servers {
		if s.Round() < 8 {
			t.Fatalf("server stuck at round %d after churn; violations: %v",
				s.Round(), f.violations())
		}
		if s.Participation() != 4 {
			t.Errorf("participation %d after churn, want 4", s.Participation())
		}
	}
	// Remaining clients can still communicate.
	f.clients[2].Send([]byte("after churn"))
	f.h.Run(30_000)
	found := false
	for _, d := range f.h.Deliveries {
		if string(d.Data) == "after churn" {
			found = true
			break
		}
	}
	if !found {
		t.Error("message lost after churn")
	}
}

func TestAlphaPolicyReopensWindow(t *testing.T) {
	f := newFixture(t, 2, 5, fixtureOpts{
		mutatePolicy: func(p *group.Policy) {
			p.Alpha = 0.9           // floor of 5 clients
			p.WindowThreshold = 0.6 // close the window after 3
		},
	})
	// Client 4 is a straggler: every submission arrives 25 ms late,
	// after the adaptive window first closes.
	slow := f.clients[4].ID()
	f.h.Outbound = func(from group.NodeID, m *Message) (time.Duration, bool) {
		if from == slow && m.Type == MsgClientSubmit {
			return 25 * time.Millisecond, false
		}
		return 0, false
	}
	f.runUntilRound(4, 2_000_000)

	for _, s := range f.servers {
		if s.Round() < 4 {
			t.Fatalf("rounds stalled at %d; violations: %v", s.Round(), f.violations())
		}
		// The α floor forces the reopened window to catch the straggler.
		if s.Participation() != 5 {
			t.Errorf("participation %d, want 5 (α reopen should wait for straggler)",
				s.Participation())
		}
	}
	if len(f.h.EventsOf(EventRoundFailed)) != 0 {
		t.Error("rounds failed despite reopening")
	}
}

func TestHardTimeoutFailsRound(t *testing.T) {
	f := newFixture(t, 2, 3, fixtureOpts{
		mutatePolicy: func(p *group.Policy) {
			p.HardTimeout = 500 * time.Millisecond
		},
	})
	// All clients go silent from round 2 on.
	f.h.Outbound = func(from group.NodeID, m *Message) (time.Duration, bool) {
		if m.Type == MsgClientSubmit && m.Round >= 2 {
			return 0, true
		}
		return 0, false
	}
	f.h.StartAll()
	f.h.Run(40_000)

	serverFails := 0
	clientFails := 0
	for _, e := range f.h.EventsOf(EventRoundFailed) {
		if f.def.ServerIndex(e.Node) >= 0 {
			serverFails++
		} else {
			clientFails++
		}
	}
	if serverFails == 0 {
		t.Errorf("servers never failed a round; violations: %v", f.violations())
	}
	if clientFails == 0 {
		t.Error("clients never observed a failed round")
	}
}
