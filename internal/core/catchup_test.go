package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"dissent/internal/crypto"
	"dissent/internal/group"
	"dissent/internal/wire"
)

// catchUpReply is one message of a catch-up answer: its type and n — an
// output's round, a roster update's version, or the version of the update
// anchoring a snapshot (0 for none).
type catchUpReply struct {
	t MsgType
	n uint64
}

// TestCatchUpAnswers states positions to one server through the messages
// that carry them — stale submissions and inventories, stale roster
// proposals, join requests — and pins the exact answer to each: which
// messages, for which rounds and versions, in order, or nothing; and
// whether the position is a violation. The retired-round rows run at
// depths 1 and 2, where the answer is a depth-sized batch of outputs.
func TestCatchUpAnswers(t *testing.T) {
	for _, depth := range []int{1, 2} {
		t.Run(fmt.Sprintf("depth-%d", depth), func(t *testing.T) { testCatchUpAnswers(t, depth) })
	}
}

func testCatchUpAnswers(t *testing.T, depth int) {
	const epoch, retain = 3, 4
	f := newFixture(t, 2, 3, fixtureOpts{
		mutatePolicy: func(p *group.Policy) {
			p.BeaconEpochRounds = epoch
			p.RetainRounds = retain
			p.Alpha = 0.5
		},
		mutateOpts: func(o *Options) { o.PipelineDepth = depth },
	})
	f.h.StartAll()
	f.stepUntilRound(4*epoch+1, 2_000_000)
	srv, peer := f.servers[0], f.servers[1]
	for i := 0; srv.phase != phaseRunning && i < 100_000 && f.h.Net.Step(); i++ {
	}
	head, v := srv.head(), srv.def.Version
	if srv.phase != phaseRunning || v < 3 || head < 2*retain {
		t.Fatalf("server at phase %d, round %d, version %d", srv.phase, head, v)
	}
	// Version 1 leaves the log (no store backs it), so a chain from
	// version 0 is truncated; later ones still replay.
	delete(srv.rosterLog, 1)
	// Client 2 stands for a joiner admitted by version v−1 whose welcome
	// was lost.
	joiner := f.clients[2]
	srv.joinedAt[joiner.ID()] = v - 1
	dig := srv.rosterDigests[v]

	client := f.clients[1]
	probe := func(c *Client, p *JoinRequest, round uint64) func() *Message {
		return func() *Message {
			m, err := c.sign(MsgJoinRequest, round, wire.Encode(p))
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
	}
	submit := func(from *node, typ MsgType, round uint64, body []byte) func() *Message {
		return func() *Message {
			m, err := from.sign(typ, round, body)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
	}
	clientSubmit := func(round uint64) func() *Message {
		return submit(&client.node, MsgClientSubmit, round, wire.Encode(&ClientSubmit{CT: []byte{0}}))
	}
	inventory := func(round uint64) func() *Message {
		return submit(&peer.node, MsgInventory, round, wire.Encode(&Inventory{}))
	}
	outputs := func(from uint64) (want []catchUpReply) {
		for r := from; r < min(head, from+uint64(depth)); r++ {
			want = append(want, catchUpReply{MsgOutput, r})
		}
		return want
	}
	full := &JoinRequest{Version: v,
		PubKey:  crypto.P256().Encode(joiner.kp.Public),
		PseuKey: crypto.P256().Encode(joiner.kp.Public)}

	rows := []struct {
		name      string
		msg       func() *Message
		repeat    bool // sent at the previous row's time, not snapshotMinInterval later
		want      []catchUpReply
		violation bool
	}{
		{name: "future version", msg: probe(client, &JoinRequest{Version: v + 1}, head), violation: true},
		{name: "behind, chain in the log", msg: probe(client, &JoinRequest{Version: v - 2}, head),
			want: []catchUpReply{{MsgRosterUpdate, v - 1}, {MsgRosterUpdate, v}}},
		{name: "chain truncated, client", msg: probe(client, &JoinRequest{Version: 0}, head),
			want: []catchUpReply{{MsgSnapshot, v}}},
		{name: "chain truncated, server", msg: submit(&peer.node, MsgRosterPropose, head, wire.Encode(&RosterPropose{Version: 1})),
			violation: true},
		{name: "diverged digest", msg: probe(client, &JoinRequest{Version: v, SchedDigest: bytes.Repeat([]byte{0xAA}, 32)}, head),
			want: []catchUpReply{{MsgSnapshot, v}}},
		{name: "current and matching", msg: probe(client, &JoinRequest{Version: v, SchedDigest: dig[:]}, head)},
		{name: "retired round, client", msg: clientSubmit(head - 2), want: outputs(head - 2)},
		{name: "retired round, server", msg: inventory(head - 2), want: outputs(head - 2)},
		{name: "round behind retention, client", msg: clientSubmit(head - retain - 2), want: []catchUpReply{{MsgSnapshot, v}}},
		{name: "round behind retention, server", msg: inventory(head - retain - 2), violation: true},
		{name: "lost welcome", msg: probe(joiner, full, 0), want: []catchUpReply{{MsgSnapshot, v - 1}}},
		{name: "a repeat inside snapshotMinInterval", msg: probe(joiner, full, 0), repeat: true},
	}

	now := f.h.Net.Now()
	for _, row := range rows {
		if !row.repeat {
			now = now.Add(snapshotMinInterval)
		}
		m := row.msg()
		out, err := srv.Handle(now, m)
		if err != nil {
			t.Fatalf("%s: engine error: %v", row.name, err)
		}
		var got []catchUpReply
		for _, env := range out.Send {
			if env.To != m.From {
				t.Errorf("%s: %s addressed to %s, not the sender", row.name, env.Msg.Type, env.To)
			}
			r := catchUpReply{t: env.Msg.Type, n: env.Msg.Round}
			switch env.Msg.Type {
			case MsgRosterUpdate:
				p, err := decode[RosterUpdateMsg](env.Msg.Body)
				if err != nil {
					t.Fatal(err)
				}
				u, err := group.DecodeRosterUpdate(p.Update)
				if err != nil {
					t.Fatal(err)
				}
				r.n = u.Version
			case MsgSnapshot:
				w, err := decode[JoinWelcome](env.Msg.Body)
				if err != nil {
					t.Fatal(err)
				}
				if w.Version != v || schedHead(w.Sched) != head {
					t.Errorf("%s: snapshot at version %d round %d, server at %d and %d", row.name, w.Version, schedHead(w.Sched), v, head)
				}
				u, err := group.DecodeRosterUpdate(w.Update)
				if err != nil {
					t.Fatal(err)
				}
				r.n = u.Version
			}
			got = append(got, r)
		}
		if !slices.Equal(got, row.want) {
			t.Errorf("%s: answered %v, want %v", row.name, got, row.want)
		}
		violated := slices.ContainsFunc(out.Events, func(e Event) bool { return e.Kind == EventProtocolViolation })
		if violated != row.violation {
			t.Errorf("%s: violation %v, want %v (events %+v)", row.name, violated, row.violation, out.Events)
		}
	}
}

// cutClient is a client whose links can be cut: while cut, nothing
// reaches it and nothing it sends leaves, but its timers keep running.
type cutClient struct {
	*Client
	cut *bool
}

func (c *cutClient) Handle(now time.Time, m *Message) (*Output, error) {
	if *c.cut {
		return &Output{}, nil
	}
	return c.Client.Handle(now, m)
}

func (c *cutClient) Tick(now time.Time) (*Output, error) {
	out, err := c.Client.Tick(now)
	if *c.cut && out != nil {
		out.Send = nil
	}
	return out, err
}

// cutFixture is a 2-server, 3-client group without churn whose client 0's
// links can be cut.
func cutFixture(t *testing.T, depth, retain int, cut *bool) *fixture {
	return newFixture(t, 2, 3, fixtureOpts{
		mutatePolicy: func(p *group.Policy) {
			p.BeaconEpochRounds = 0
			p.RetainRounds = retain
			p.Alpha = 0.25
			p.WindowThreshold = 0.5 // rounds go on without client 0
		},
		mutateOpts: func(o *Options) { o.PipelineDepth = depth },
		wrapClient: func(idx int, c *Client) Engine {
			if idx != 0 {
				return nil
			}
			return &cutClient{Client: c, cut: cut}
		},
	})
}

// TestClientBehindRetentionCatchesUp cuts a client off for longer than
// the servers retain outputs, in a group without churn — so no epoch
// boundary ever re-syncs it either. Its first submission after the links
// heal states a round no server can replay; the answer must be a
// snapshot that puts it back at the servers' head, and its next payload
// must be delivered within a few rounds.
func TestClientBehindRetentionCatchesUp(t *testing.T) {
	const retain = 4
	cut := false
	f := cutFixture(t, 1, retain, &cut)
	srv, c0 := f.servers[0], f.clients[0]
	f.h.StartAll()
	f.stepUntilRound(3, 1_000_000)

	cut = true
	f.stepUntilRound(srv.Round()+3*retain, 2_000_000)
	if lag := srv.Round() - c0.head(); lag <= retain {
		t.Fatalf("client only %d rounds behind after the cut", lag)
	}
	cut = false

	// The cut lasts a fraction of the client's first resend delay: the
	// resend states its position, and the snapshot answers it.
	healed := f.h.Net.Now()
	for f.h.Net.Now().Sub(healed) < 2*submitResendInterval && c0.head()+1 < srv.Round() && f.h.Net.Step() {
	}
	if c0.head()+1 < srv.Round() {
		t.Fatalf("client stuck at round %d, servers at %d; violations: %v", c0.head(), srv.Round(), f.violations())
	}
	if f.h.FirstEvent(c0.ID(), EventReplicaResynced) == nil {
		t.Fatal("client caught up without a snapshot")
	}

	const bound = 6
	sent := srv.Round()
	c0.Send([]byte("behind no more"))
	f.stepUntilRound(sent+bound, 1_000_000)
	if !slices.ContainsFunc(f.h.Deliveries, func(d TimedDelivery) bool {
		return string(d.Data) == "behind no more" && d.Round <= sent+bound
	}) {
		t.Fatalf("payload not delivered within %d rounds of the catch-up; violations: %v", bound, f.violations())
	}
}

// TestClientLadderAtDepth2 cuts a client off for several rounds at
// pipeline depth 2, within retention. Once the first catch-up answer
// reaches it, it must climb back to the live round without waiting for
// another resend timer: every answer carries a depth of outputs, and the
// submissions those outputs release state the next stale rounds.
func TestClientLadderAtDepth2(t *testing.T) {
	const depth = 2
	cut := false
	// Retention outlasts the client's first resend (2 s, some 150 rounds
	// here), so the climb starts inside it.
	f := cutFixture(t, depth, 512, &cut)
	srv, c0 := f.servers[0], f.clients[0]
	f.h.StartAll()
	f.stepUntilRound(3, 1_000_000)

	cut = true
	f.stepUntilRound(srv.Round()+8, 2_000_000)
	cut = false
	behind := c0.head()
	if lag := srv.Round() - behind; lag < 6 {
		t.Fatalf("client only %d rounds behind after the cut", lag)
	}

	var first time.Time // when the first answer moved the client
	for i := 0; i < 2_000_000 && f.h.Net.Step(); i++ {
		if first.IsZero() && c0.head() > behind {
			first = f.h.Net.Now()
		}
		if !first.IsZero() && c0.head()+depth >= srv.Round() {
			break
		}
	}
	if first.IsZero() || c0.head()+depth < srv.Round() {
		t.Fatalf("client at round %d never reached the servers' %d", c0.head(), srv.Round())
	}
	if f.h.FirstEvent(c0.ID(), EventReplicaResynced) != nil {
		t.Fatal("the client was re-synced from a snapshot, not answered with outputs")
	}
	// The shortest resend wait is the 2 s base less its 10 % jitter.
	if took := f.h.Net.Now().Sub(first); took >= submitResendInterval*9/10 {
		t.Fatalf("the climb from round %d took %v: it waited for resend timers", behind, took)
	}
}
