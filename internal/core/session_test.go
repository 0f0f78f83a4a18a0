package core

import (
	"bytes"
	"testing"

	"dissent/internal/crypto"
	"dissent/internal/group"
)

// TestMessageGroupFollowsPolicy pins every engine's accusation-shuffle
// group to the one Policy.MessageGroup names: zero Options take it, and
// each constructor refuses a group of another name.
func TestMessageGroupFollowsPolicy(t *testing.T) {
	f := newFixture(t, 2, 2, fixtureOpts{})
	joinKP, err := crypto.GenerateKeyPair(f.def.Group(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		role  string
		build func(Options) (*node, error)
	}{
		{"server", func(o Options) (*node, error) {
			s, err := NewServer(f.def, f.kpByID[f.def.Servers[0].ID], f.msgKPByIdx[0], o)
			if err != nil {
				return nil, err
			}
			return &s.node, nil
		}},
		{"client", func(o Options) (*node, error) {
			c, err := NewClient(f.def, f.kpByID[f.def.Clients[0].ID], o)
			if err != nil {
				return nil, err
			}
			return &c.node, nil
		}},
		{"joiner", func(o Options) (*node, error) {
			c, err := NewJoinerClient(f.def, joinKP, "", o)
			if err != nil {
				return nil, err
			}
			return &c.node, nil
		}},
	} {
		n, err := tc.build(Options{})
		if err != nil {
			t.Fatalf("%s with zero Options: %v", tc.role, err)
		}
		if got, want := n.msgGrp.Name(), f.def.Policy.MessageGroup; got != want {
			t.Errorf("%s with zero Options uses %s, want the policy's %s", tc.role, got, want)
		}
		if _, err := tc.build(Options{MessageGroup: crypto.ModP2048()}); err == nil {
			t.Errorf("%s accepted modp-2048 in a %s group", tc.role, f.def.Policy.MessageGroup)
		}
	}
}

func TestBootstrapEstablishesSchedule(t *testing.T) {
	f := newFixture(t, 3, 5, fixtureOpts{})
	f.runUntilRound(0, 200_000)

	ready := f.h.EventsOf(EventScheduleReady)
	// Every server and every client reports the schedule.
	if len(ready) != 3+5 {
		t.Fatalf("%d schedule-ready events, want 8; violations: %v", len(ready), f.violations())
	}
	for _, c := range f.clients {
		if !c.Ready() {
			t.Fatalf("client %d not ready", c.Index())
		}
		if c.Slot() < 0 || c.Slot() >= 5 {
			t.Fatalf("client slot %d out of range", c.Slot())
		}
	}
	// All slots distinct.
	seen := map[int]bool{}
	for _, c := range f.clients {
		if seen[c.Slot()] {
			t.Fatal("two clients share a slot")
		}
		seen[c.Slot()] = true
	}
}

func TestAnonymousMessageDelivered(t *testing.T) {
	f := newFixture(t, 2, 4, fixtureOpts{})
	msg := []byte("speak truth to power")
	f.clients[2].Send(msg)
	f.runUntilRound(4, 500_000)

	// The message should be delivered at every client and server, and
	// attributed only to a slot.
	got := 0
	for _, d := range f.h.Deliveries {
		if bytes.Equal(d.Data, msg) {
			got++
			if d.Slot != f.clients[2].Slot() {
				t.Errorf("delivery slot %d, want %d", d.Slot, f.clients[2].Slot())
			}
		}
	}
	if got != 2+4 {
		t.Errorf("message seen by %d nodes, want 6; violations: %v", got, f.violations())
	}
}

func TestMultipleSendersAllDelivered(t *testing.T) {
	f := newFixture(t, 2, 4, fixtureOpts{})
	msgs := [][]byte{
		[]byte("message from client zero"),
		[]byte("message from client one"),
		[]byte("message from client two"),
		[]byte("message from client three"),
	}
	for i, c := range f.clients {
		c.Send(msgs[i])
	}
	f.runUntilRound(5, 800_000)

	for i := range msgs {
		found := false
		for _, d := range f.h.Deliveries {
			if d.Node == f.servers[0].ID() && bytes.Equal(d.Data, msgs[i]) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("message %d never delivered at server 0", i)
		}
	}
}

func TestLargeMessageFragmented(t *testing.T) {
	f := newFixture(t, 2, 3, fixtureOpts{
		mutatePolicy: func(p *group.Policy) {
			p.MaxSlotLen = 128 // force fragmentation
		},
	})
	big := bytes.Repeat([]byte("0123456789abcdef"), 40) // 640 bytes
	f.clients[0].Send(big)
	f.runUntilRound(14, 2_000_000)

	// Reassemble fragments delivered at server 0 in slot order.
	slot := f.clients[0].Slot()
	var assembled []byte
	for _, d := range f.h.Deliveries {
		if d.Node == f.servers[0].ID() && d.Slot == slot {
			assembled = append(assembled, d.Data...)
		}
	}
	if !bytes.Equal(assembled, big) {
		t.Errorf("reassembled %d bytes, want %d; violations: %v",
			len(assembled), len(big), f.violations())
	}
}

func TestRoundsProgressWhenIdle(t *testing.T) {
	f := newFixture(t, 2, 3, fixtureOpts{})
	f.runUntilRound(6, 500_000)
	for _, s := range f.servers {
		if s.Round() < 6 {
			t.Errorf("server %d stuck at round %d; violations: %v",
				s.Index(), s.Round(), f.violations())
		}
		if s.Participation() != 3 {
			t.Errorf("participation %d, want 3", s.Participation())
		}
	}
}

func TestServersAgreeOnRoundOutputs(t *testing.T) {
	f := newFixture(t, 3, 4, fixtureOpts{})
	f.clients[1].Send([]byte("agreement check"))
	f.runUntilRound(3, 500_000)

	// Compare the delivery stream across servers: identical contents.
	perServer := make(map[int][]string)
	for _, d := range f.h.Deliveries {
		for si, s := range f.servers {
			if d.Node == s.ID() {
				perServer[si] = append(perServer[si], string(d.Data))
			}
		}
	}
	for si := 1; si < 3; si++ {
		if len(perServer[si]) != len(perServer[0]) {
			t.Fatalf("server %d delivered %d messages, server 0 %d",
				si, len(perServer[si]), len(perServer[0]))
		}
		for k := range perServer[si] {
			if perServer[si][k] != perServer[0][k] {
				t.Fatal("servers delivered different messages")
			}
		}
	}
}
