package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dissent/internal/group"
)

// These tests pin the speculative commit (closeWindow / maybeCommit):
// when it fires, that a miss falls back to the explicit exchange at
// every server in the same round, and what a round costs in link delays
// either way.

// wireTap counts the server-to-server messages of each round by type
// and sender, chained ahead of whatever Outbound hook the test set.
type wireTap struct {
	sent map[MsgType]map[uint64]map[group.NodeID]int
}

func tapWire(f *fixture) *wireTap {
	tap := &wireTap{sent: make(map[MsgType]map[uint64]map[group.NodeID]int)}
	inner := f.h.Outbound
	f.h.Outbound = func(from group.NodeID, m *Message) (time.Duration, bool) {
		if f.def.ServerIndex(from) >= 0 {
			byRound := tap.sent[m.Type]
			if byRound == nil {
				byRound = make(map[uint64]map[group.NodeID]int)
				tap.sent[m.Type] = byRound
			}
			if byRound[m.Round] == nil {
				byRound[m.Round] = make(map[group.NodeID]int)
			}
			byRound[m.Round][from]++
		}
		if inner != nil {
			return inner(from, m)
		}
		return 0, false
	}
	return tap
}

// senders returns how many distinct servers sent a message of the type
// in the round.
func (tap *wireTap) senders(t MsgType, round uint64) int {
	return len(tap.sent[t][round])
}

// explicit reports whether the round ran the explicit commit exchange at
// any server.
func (tap *wireTap) explicit(round uint64) bool { return tap.senders(MsgCommit, round) > 0 }

// completedAt returns when server si certified each round.
func (f *fixture) completedAt(si int) map[uint64]time.Time {
	at := make(map[uint64]time.Time)
	id := f.servers[si].ID()
	for _, e := range f.h.EventsOf(EventRoundComplete) {
		if e.Node == id {
			at[e.Round] = e.At
		}
	}
	return at
}

// clientOfBusiestServer returns a client whose upstream server has at
// least two clients, so that server's window still closes (on the
// threshold rule) when this one is withheld.
func (f *fixture) clientOfBusiestServer() int {
	load := make(map[int]int)
	for ci := range f.def.Clients {
		load[f.def.UpstreamServer(ci)]++
	}
	for ci := range f.def.Clients {
		if load[f.def.UpstreamServer(ci)] >= 2 {
			return ci
		}
	}
	f.t.Fatal("no server has two clients")
	return -1
}

// latencyFloorFixture is the paper's topology (10 ms server–server, 50 ms
// client–server) with zero compute and unlimited uplinks, at the given
// pipeline depth, with no epoch drain inside the measured stretch.
func latencyFloorFixture(t *testing.T, depth int) *fixture {
	f := newFixture(t, 3, 4, fixtureOpts{
		mutatePolicy: func(p *group.Policy) {
			p.Alpha = 0.5           // a withheld client does not reopen the window…
			p.WindowThreshold = 0.5 // …and its server's window still closes
			p.BeaconEpochRounds = 0 // no drain inside the measured stretch
		},
		mutateOpts: func(o *Options) { o.PipelineDepth = depth },
	})
	isServer := func(id group.NodeID) bool { return f.def.ServerIndex(id) >= 0 }
	f.h.Latency = func(from, to group.NodeID) time.Duration {
		if isServer(from) && isServer(to) {
			return serverHop
		}
		return clientHop
	}
	return f
}

// The latency-floor topology's link delays, and the chain of one round
// with h sequential server hops: submit, h hops, output.
const (
	serverHop = 10 * time.Millisecond
	clientHop = 50 * time.Millisecond
)

func linkChain(hops int) time.Duration { return 2*clientHop + time.Duration(hops)*serverHop }

// hops is how many server hops round r took: three when its commit rode
// the inventory, four when it ran the explicit exchange.
func (tap *wireTap) hops(r uint64) int {
	if tap.explicit(r) {
		return 4
	}
	return 3
}

// TestRoundPeriodIsLatencyFloor pins the round's link-delay chain in
// virtual time on the paper's topology (latencyFloorFixture) at depths 1
// to 4: a client cycle is submit + server hops + output, and a depth-d
// pipeline runs d of them interleaved, so round r certifies exactly
// 2·50 + h·10 ms after round r−d, with h = 3 when the commit rode the
// inventory and h = 4 when it did not. A fourth hop, or any new
// sequential message, in the steady-state round fails this by count — no
// wall-clock tolerance.
//
// At depths 1 to 3 the steady state speculates. At depth 4 this topology
// is bistable: rounds spaced (2·50 + 3·10)/4 = 32.5 ms apart keep
// speculating (the previous round certifies 3·10 ms after a window
// closes), but once a round misses they are spaced (2·50 + 4·10)/4 =
// 35 ms apart, less than the 4·10 ms the previous round now needs, so no
// round is the pipeline head when its window closes and the explicit
// exchange sustains itself. The fixture fills its pipeline with rounds
// composed together, which misses, so depth 4 runs the four-hop chain;
// the per-round formula holds all the same.
func TestRoundPeriodIsLatencyFloor(t *testing.T) {
	const (
		withhold = 14 // first withheld round
		last     = 30
	)
	for depth := 1; depth <= 4; depth++ {
		f := latencyFloorFixture(t, depth)
		// One client goes missing for one client-side cycle (depth
		// consecutive rounds), then returns.
		victim := f.clients[f.clientOfBusiestServer()].ID()
		f.h.Outbound = func(from group.NodeID, m *Message) (time.Duration, bool) {
			drop := from == victim && m.Type == MsgClientSubmit &&
				m.Round >= withhold && m.Round < withhold+uint64(depth)
			return 0, drop
		}
		tap := tapWire(f)
		f.runUntilRound(last, 4_000_000)
		if v := f.violations(); len(v) > 0 {
			t.Fatalf("depth %d: violations: %v", depth, v)
		}
		at := f.completedAt(0)
		period := func(r uint64) time.Duration { return at[r].Sub(at[r-uint64(depth)]) }
		d := uint64(depth)
		// exact asserts round r's period is its own chain, and that it
		// speculated where this depth's steady state does.
		exact := func(stretch string, r uint64) {
			if depth <= 3 && tap.explicit(r) {
				t.Errorf("depth %d round %d (%s): ran the explicit commit exchange", depth, r, stretch)
			}
			if got, want := period(r), linkChain(tap.hops(r)); got != want {
				t.Errorf("depth %d round %d (%s): period %v, want (2·50 + %d·10) ms = %v per %d rounds",
					depth, r, stretch, got, tap.hops(r), want, depth)
			}
		}

		// Steady state, once the pipeline fill has settled.
		for r := max(6, 3*d); r < withhold; r++ {
			exact("steady", r)
		}
		// The withheld cycle and the return. The withheld rounds also wait
		// out the victim's server's window (policy, not link delay); every
		// return window closes on time, so a return round costs exactly its
		// chain. At depths 1 and 2 every one of these rounds misses at every
		// server — a withheld round's included set differs from the last,
		// and so does a return round's, whose client was absent from it —
		// and so runs the explicit exchange's four hops. Deeper, only the
		// first withheld round and the first round back surely miss; the
		// rounds between may speculate, and at depth 4 the policy wait
		// spills into the return rounds through the one-collecting-window
		// gate.
		for r := uint64(withhold); r < withhold+2*d; r++ {
			if depth <= 2 || r == withhold || r == withhold+d {
				if n := tap.senders(MsgCommit, r); n != len(f.servers) {
					t.Errorf("depth %d round %d: %d servers sent MsgCommit, want all %d", depth, r, n, len(f.servers))
				}
			}
			hops := tap.hops(r)
			if depth <= 2 {
				hops = 4
			}
			if got, floor := period(r), linkChain(hops); got < floor {
				t.Errorf("depth %d round %d: period %v below its %d-hop chain %v", depth, r, got, hops, floor)
			} else if r >= withhold+d && depth <= 3 && got != floor {
				t.Errorf("depth %d round %d: period %v on the client's return, want exactly (2·50 + %d·10) ms = %v per %d rounds",
					depth, r, got, hops, floor, depth)
			}
		}
		// And the chain shrinks back.
		for r := uint64(last - 4); r < last; r++ {
			exact("recovered", r)
		}
	}
}

// TestRecordLatencyOpenVsClosedSlot asserts the record-latency formula in
// virtual time on the latency-floor topology at depths 1 to 4. Let
// chain(r) = 2·50 + h·10 ms be round r's link chain, h its server hops. A
// record composed into an open slot in round r reaches its sender in
// round r's output, exactly chain(r) after that composition. A record
// whose slot is closed sets the request bit in round q instead; the
// opening applies from round q+d, which is composed the moment q's output
// arrives, so the record is delivered exactly chain(q) + chain(q+d) after
// the first composition. At depths 1–3 every chain here is 130 ms: one
// chain on an open slot, two on a closed one (TestRoundPeriodIsLatencyFloor
// explains depth 4's four-hop chains). The slot stays open for exactly
// the policy's IdleCloseRounds·d silent rounds: a record one round inside
// that edge pays one chain, a record at it two.
func TestRecordLatencyOpenVsClosedSlot(t *testing.T) {
	for depth := 1; depth <= 4; depth++ {
		f := latencyFloorFixture(t, depth)
		subject := f.clients[0]
		composed := map[uint64]time.Time{} // the subject's first submission of each round
		f.h.Outbound = func(from group.NodeID, m *Message) (time.Duration, bool) {
			if _, seen := composed[m.Round]; from == subject.ID() && m.Type == MsgClientSubmit && !seen {
				composed[m.Round] = f.h.Net.Now()
			}
			return 0, false
		}
		tap := tapWire(f)
		f.h.StartAll()
		f.stepUntilRound(uint64(3*depth+6), 1_000_000)

		// send queues a record and returns the round the subject composes
		// next, and the round in whose output — and the time at which — the
		// subject decodes the record. The record must fit one open slot.
		send := func(data []byte) (next, round uint64, at time.Time) {
			t.Helper()
			next = subject.Round()
			subject.Send(data)
			for range 1_000_000 {
				if !f.h.Net.Step() {
					break
				}
				for _, d := range f.h.Deliveries {
					if d.Node == subject.ID() && bytes.Equal(d.Data, data) {
						return next, d.Round, d.At
					}
				}
			}
			t.Fatalf("depth %d: %q never delivered; violations: %v", depth, data, f.violations())
			return
		}
		d := uint64(depth)

		q, got, at := send([]byte("a record on a closed slot"))
		if got != q+d {
			t.Errorf("depth %d: request bit in round %d, record delivered in round %d, want %d", depth, q, got, q+d)
		}
		if lat, want := at.Sub(composed[q]), linkChain(tap.hops(q))+linkChain(tap.hops(q+d)); lat != want {
			t.Errorf("depth %d: closed-slot record delivered %v after its first composition, want two chains = %v", depth, lat, want)
		}

		// Inside the silent-slot horizon the slot is still open.
		f.stepUntilRound(f.servers[0].Round(), 1_000_000)
		r, got, at := send([]byte("a record on an open slot"))
		if got != r {
			t.Errorf("depth %d: open-slot record composed into round %d, delivered in round %d", depth, r, got)
		}
		if lat, want := at.Sub(composed[r]), linkChain(tap.hops(r)); lat != want {
			t.Errorf("depth %d: open-slot record delivered %v after its composition, want one chain = %v", depth, lat, want)
		}

		// The horizon's edge. Round k is composed against the directives of
		// rounds ≤ k−d, so after a record in round r its layout has seen the
		// silent rounds r+1 … k−d. With H = IdleCloseRounds·d, a record
		// queued after H−1 of them still finds the slot open; one queued
		// after H finds it closed and pays the request round.
		horizon := uint64(f.def.Policy.IdleCloseRounds) * d
		queueAt := func(k uint64) {
			t.Helper()
			for range 1_000_000 {
				if subject.Round() >= k || !f.h.Net.Step() {
					break
				}
			}
			if subject.Round() != k {
				t.Fatalf("depth %d: the subject never came to compose round %d", depth, k)
			}
		}
		queueAt(r + d + horizon - 1)
		e, got, at := send([]byte("a record inside the horizon"))
		if got != e {
			t.Errorf("depth %d: record after %d silent rounds composed into round %d, delivered in round %d", depth, horizon-1, e, got)
		}
		if lat, want := at.Sub(composed[e]), linkChain(tap.hops(e)); lat != want {
			t.Errorf("depth %d: record after %d silent rounds delivered %v after its composition, want one chain = %v", depth, horizon-1, lat, want)
		}
		queueAt(e + d + horizon)
		x, got, at := send([]byte("a record at the horizon"))
		if got != x+d {
			t.Errorf("depth %d: record after %d silent rounds: request bit in round %d, delivered in round %d, want %d", depth, horizon, x, got, x+d)
		}
		if lat, want := at.Sub(composed[x]), linkChain(tap.hops(x))+linkChain(tap.hops(x+d)); lat != want {
			t.Errorf("depth %d: record after %d silent rounds delivered %v after its first composition, want two chains = %v", depth, horizon, lat, want)
		}

		for _, round := range []uint64{q, q + d, r, e, x, x + d} {
			if depth <= 3 && tap.explicit(round) {
				t.Errorf("depth %d round %d: ran the explicit commit exchange", depth, round)
			}
		}
	}
}

// amnesiac is a server that, for rounds in (from, to], has lost the
// previous round's history by the time its window closes — a freshly
// restored server's position — so it never speculates there and its
// inventories carry no commitment.
type amnesiac struct {
	*Server
	from, to uint64
}

func (a *amnesiac) forget() {
	if r := a.head; r > a.from && r <= a.to {
		delete(a.history, r-1)
	}
}

func (a *amnesiac) Handle(now time.Time, m *Message) (*Output, error) {
	a.forget()
	return a.Server.Handle(now, m)
}

func (a *amnesiac) Tick(now time.Time) (*Output, error) {
	a.forget()
	return a.Server.Tick(now)
}

// senderStreams returns each client's concatenated delivered bytes as
// server 0 observed them.
func (f *fixture) senderStreams() map[int]string {
	bySlot := make(map[int]int, len(f.clients))
	for i, c := range f.clients {
		bySlot[c.Slot()] = i
	}
	streams := make(map[int]string)
	for _, d := range f.h.Deliveries {
		if ci, ok := bySlot[d.Slot]; ok && d.Node == f.servers[0].ID() {
			streams[ci] += string(d.Data)
		}
	}
	return streams
}

// participation returns the certified participation count of each round
// at server 0, as the round-complete event reports it.
func (f *fixture) participation() map[uint64]string {
	out := make(map[uint64]string)
	for _, e := range f.h.EventsOf(EventRoundComplete) {
		if e.Node == f.servers[0].ID() {
			out[e.Round] = e.Detail
		}
	}
	return out
}

// TestSpeculationMissCertifiesSameOutput: a client that straggles past
// its window makes the round miss and close on the explicit path; the
// next round, with that client still absent — as the previous included
// set predicts — speculates again. The certified output (participation
// per round, every sender's delivered stream) is what a group that never
// speculates certifies for the same script.
func TestSpeculationMissCertifiesSameOutput(t *testing.T) {
	const straggleFrom, straggleTo, last = 4, 5, 12
	run := func(speculating bool) (*fixture, *wireTap) {
		fo := fixtureOpts{mutatePolicy: func(p *group.Policy) {
			p.Alpha = 0.5
			p.WindowThreshold = 0.5
			p.BeaconEpochRounds = 0
		}}
		if !speculating {
			fo.wrapServer = func(idx int, s *Server) Engine {
				if idx == 1 {
					return &amnesiac{Server: s, to: ^uint64(0)}
				}
				return nil
			}
		}
		f := newFixture(t, 3, 4, fo)
		late := f.clients[f.clientOfBusiestServer()].ID()
		f.h.Outbound = func(from group.NodeID, m *Message) (time.Duration, bool) {
			if from == late && m.Type == MsgClientSubmit && m.Round >= straggleFrom && m.Round <= straggleTo {
				return 15 * time.Millisecond, false // past the 10 ms window
			}
			return 0, false
		}
		tap := tapWire(f)
		f.h.StartAll()
		for r := uint64(0); r < last; r++ {
			f.stepUntilRound(r, 400_000)
			f.clients[int(r)%len(f.clients)].Send([]byte(strings.Repeat("x", int(r)+1) + "|"))
		}
		f.stepUntilRound(last+6, 800_000)
		if v := f.violations(); len(v) > 0 {
			t.Fatalf("speculating=%v: violations: %v", speculating, v)
		}
		return f, tap
	}
	spec, tap := run(true)
	ref, refTap := run(false)

	for r := uint64(1); r <= last; r++ {
		if !refTap.explicit(r) {
			t.Fatalf("reference run speculated in round %d", r)
		}
		want := r == straggleFrom || r == straggleTo+1 // the client leaves, the client returns
		if got := tap.explicit(r); got != want {
			t.Errorf("round %d: explicit exchange ran = %v, want %v", r, got, want)
		}
	}
	refPart := ref.participation()
	for r, got := range spec.participation() {
		if r <= last && got != refPart[r] {
			t.Errorf("round %d: certified %q, the non-speculating run %q", r, got, refPart[r])
		}
	}
	if !strings.Contains(refPart[straggleFrom], "participation 3") {
		t.Fatalf("the straggler was not left out of round %d: %q", straggleFrom, refPart[straggleFrom])
	}
	want := ref.senderStreams()
	got := spec.senderStreams()
	if len(want) == 0 {
		t.Fatal("the reference run delivered nothing")
	}
	for ci := range spec.clients {
		if got[ci] != want[ci] {
			t.Errorf("client %d: delivered %q, the non-speculating run %q", ci, got[ci], want[ci])
		}
	}
}

// TestSpeculationFallbackIsUnanimous: whatever one server's inventory
// does to the rule — carry no commitment, list clients the prediction
// does not, or carry a commitment that does not parse — every honest
// server reaches the same verdict on the same M messages, in the same
// round: nobody reveals a MsgShare while a peer still waits for a
// MsgCommit.
func TestSpeculationFallbackIsUnanimous(t *testing.T) {
	const lo, hi = 3, 5 // rounds the odd server out misbehaves in

	t.Run("no-commitment", func(t *testing.T) {
		f := newFixture(t, 3, 4, fixtureOpts{
			wrapServer: func(idx int, s *Server) Engine {
				if idx == 1 {
					return &amnesiac{Server: s, from: lo - 1, to: hi}
				}
				return nil
			},
		})
		tap := tapWire(f)
		f.runUntilRound(hi+3, 2_000_000)
		if v := f.violations(); len(v) > 0 {
			t.Fatalf("violations: %v", v)
		}
		if n := len(f.h.EventsOf(EventMisbehavior)); n > 0 {
			t.Fatalf("%d misbehavior events for a server that merely did not speculate", n)
		}
		for r := uint64(1); r <= hi+3; r++ {
			want := 0
			if r >= lo && r <= hi {
				want = len(f.servers)
			}
			if got := tap.senders(MsgCommit, r); got != want {
				t.Errorf("round %d: %d servers ran the explicit exchange, want %d", r, got, want)
			}
			if got := tap.senders(MsgShare, r); got != len(f.servers) {
				t.Errorf("round %d: %d servers revealed a share, want all", r, got)
			}
		}
	})

	// The tampering cases need a byzantine sender: its peers see an
	// inventory its own engine did not build. It then waits for shares
	// nobody will send, so the round stalls on it — as any round does
	// on a byzantine server in an anytrust group. The property is about
	// the honest ones.
	tamper := func(t *testing.T, mutate func(*Inventory)) (*fixture, *wireTap) {
		bad := &Interdict{Outbound: func(env Envelope, resign func(*Message) *Message) []Envelope {
			if env.Msg.Type != MsgInventory || env.Msg.Round != lo {
				return []Envelope{env}
			}
			p, err := DecodeInventory(env.Msg.Body)
			if err != nil {
				t.Errorf("honest engine produced an undecodable inventory: %v", err)
				return []Envelope{env}
			}
			if len(p.Hash) == 0 {
				t.Errorf("round %d inventory carries no commitment to tamper with", lo)
			}
			mutate(p)
			return []Envelope{{To: env.To, Msg: resign(&Message{Type: MsgInventory, Round: env.Msg.Round, Body: p.Encode()})}}
		}}
		f := newFixture(t, 3, 4, fixtureOpts{
			// A shortened list must fall through to the commit exchange,
			// not reopen the window.
			mutatePolicy: func(p *group.Policy) { p.Alpha = 0.5 },
			serverOpts: func(idx int, o *Options) {
				if idx == 1 {
					o.Interdict = bad
				}
			},
		})
		tap := tapWire(f)
		f.h.StartAll()
		f.stepUntilRound(lo-1, 2_000_000)
		f.step(6000)
		return f, tap
	}

	t.Run("list-differs", func(t *testing.T) {
		f, tap := tamper(t, func(p *Inventory) { p.Clients = p.Clients[:len(p.Clients)-1] })
		for _, si := range []int{0, 2} {
			id := f.servers[si].ID()
			if tap.sent[MsgCommit][lo][id] == 0 {
				t.Errorf("honest server %d did not fall back to the explicit exchange", si)
			}
			if tap.sent[MsgShare][lo][id] != 0 {
				t.Errorf("honest server %d revealed its share without every explicit commitment", si)
			}
		}
		if f.misbehaviorCount("withholding", f.def.Servers[1].ID) == 0 {
			t.Errorf("the stalled exchange was never attributed to the tampering server")
		}
		if wrong := f.honestAttributions("withholding", 1); len(wrong) > 0 {
			t.Errorf("stall pinned on an honest server: %+v", wrong)
		}
	})

	t.Run("malformed-commitment", func(t *testing.T) {
		f, tap := tamper(t, func(p *Inventory) { p.Hash = p.Hash[:len(p.Hash)-1] })
		culprit := f.def.Servers[1].ID
		for _, si := range []int{0, 2} {
			seen := false
			for _, ev := range f.h.EventsOf(EventMisbehavior) {
				if ev.Node == f.servers[si].ID() && ev.Culprit == culprit && strings.HasPrefix(ev.Detail, "malformed:") {
					seen = true
				}
			}
			if !seen {
				t.Errorf("honest server %d did not attribute the malformed commitment", si)
			}
			if tap.sent[MsgShare][lo][f.servers[si].ID()] != 0 {
				t.Errorf("honest server %d revealed its share on a malformed inventory", si)
			}
		}
		if wrong := f.honestAttributions("malformed", 1); len(wrong) > 0 {
			t.Errorf("malformed commitment pinned on an honest server: %+v", wrong)
		}
	})
}
