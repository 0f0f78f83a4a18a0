package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dissent/internal/crypto"
	"dissent/internal/group"
	"dissent/internal/wire"
)

// TestExchangeDuplicateRule pins the one duplicate rule of the nine
// all-servers exchanges (ARCHITECTURE.md "All-servers exchanges"). Each
// row wedges a 3-server group in one exchange by dropping server 2's
// message of that kind, waits until server 0 holds server 1's, and then
// hands server 0 two more messages signed by server 1: the same body
// again — a retransmit, charged to no one — and a different, valid body
// for the same (kind, position, attempt), which is equivocation unless
// the kind keeps its first valid copy.
func TestExchangeDuplicateRule(t *testing.T) {
	churn := func(p *group.Policy) { p.BeaconEpochRounds = 3 }
	for _, tc := range []struct {
		kind   MsgType
		policy func(*group.Policy)
		// prepare installs what the row needs beyond the drop: a disruptor
		// for the trace, a dropped submission stream for a failed round.
		prepare func(f *fixture, drop map[MsgType]bool)
		// holds reports whether s waits in the row's exchange for the round
		// of m, server 1's captured message, with server 1's slot filled.
		holds func(s *Server, m *Message) bool
		// differ is a different, valid body server 1 could sign for the
		// same slot.
		differ    func(t *testing.T, f *fixture, m *Message) []byte
		keepFirst bool
	}{
		{
			kind:  MsgScheduleCert,
			holds: func(s *Server, _ *Message) bool { return s.phase == phaseSetup && s.schedCert.has(1) },
			differ: func(t *testing.T, f *fixture, _ *Message) []byte {
				s1 := f.servers[1]
				sig, err := s1.kp.Sign("dissent/schedule", scheduleSignedBytes(s1.grpID, s1.encodedSlotKeys()), nil)
				if err != nil {
					t.Fatal(err)
				}
				return wire.Encode(&Certify{Sig: crypto.EncodeSignature(s1.keyGrp, sig)})
			},
			keepFirst: true,
		},
		{
			kind: MsgPseudonymList,
			holds: func(s *Server, _ *Message) bool {
				return !s.setup.started && s.setup.list.has(1)
			},
			differ: func(t *testing.T, _ *fixture, m *Message) []byte {
				p := mustDecode[ShuffleList](t, m.Body)
				if len(p.Clients) == 0 {
					t.Fatal("server 1 listed no client")
				}
				p.Clients, p.CTs = p.Clients[1:], p.CTs[1:]
				return wire.Encode(p)
			},
			keepFirst: true,
		},
		{
			kind: MsgInventory,
			holds: func(s *Server, m *Message) bool {
				rs := s.rounds[m.Round]
				return rs != nil && rs.phase == rpInventory && rs.inv.has(1)
			},
			differ: func(t *testing.T, _ *fixture, m *Message) []byte {
				p := mustDecode[Inventory](t, m.Body)
				if len(p.Clients) == 0 {
					t.Fatal("server 1 inventoried no client")
				}
				p.Clients = p.Clients[1:]
				return wire.Encode(p)
			},
		},
		{
			// Round 0 follows no certified round, so it runs the explicit
			// commit exchange.
			kind: MsgCommit,
			holds: func(s *Server, m *Message) bool {
				rs := s.rounds[m.Round]
				return rs != nil && rs.phase == rpCommit && rs.commit.has(1)
			},
			differ: func(t *testing.T, _ *fixture, m *Message) []byte {
				p := mustDecode[Commit](t, m.Body)
				p.Hash = append([]byte(nil), p.Hash...)
				p.Hash[0] ^= 1
				return wire.Encode(p)
			},
		},
		{
			kind: MsgShare,
			holds: func(s *Server, m *Message) bool {
				rs := s.rounds[m.Round]
				return rs != nil && rs.phase == rpShare && rs.share.has(1)
			},
			differ: func(t *testing.T, _ *fixture, m *Message) []byte {
				p := mustDecode[Share](t, m.Body)
				p.CT = append([]byte(nil), p.CT...)
				p.CT[0] ^= 1
				return wire.Encode(p)
			},
		},
		{
			// A collective round's partial response is unique, so the
			// different valid Certify is a failed round's own signature,
			// which is randomized: no client submission gets through, and
			// round 0 fails once its reopen budget is spent.
			kind: MsgCertify,
			prepare: func(_ *fixture, drop map[MsgType]bool) {
				drop[MsgClientSubmit] = true
			},
			holds: func(s *Server, m *Message) bool {
				rs := s.rounds[m.Round]
				return rs != nil && rs.phase == rpCertify && rs.failed && rs.cert.has(1)
			},
			differ: func(t *testing.T, f *fixture, m *Message) []byte {
				rs := f.servers[0].rounds[m.Round]
				sig, err := f.servers[1].kp.Sign("dissent/cleartext", rs.certDigest, nil)
				if err != nil {
					t.Fatal(err)
				}
				return wire.Encode(&Certify{Attempt: rs.attempt, Sig: crypto.EncodeSignature(f.servers[1].keyGrp, sig)})
			},
		},
		{
			kind:   MsgRosterPropose,
			policy: churn,
			holds: func(s *Server, _ *Message) bool {
				return s.roster != nil && s.roster.prop.has(1)
			},
			differ: func(t *testing.T, f *fixture, m *Message) []byte {
				p := mustDecode[RosterPropose](t, m.Body)
				p.Remove = append(p.Remove, f.clients[0].ID())
				return wire.Encode(p)
			},
		},
		{
			kind:   MsgRosterCert,
			policy: churn,
			holds: func(s *Server, _ *Message) bool {
				return s.roster != nil && s.roster.cert.has(1)
			},
			differ: func(t *testing.T, f *fixture, m *Message) []byte {
				s0, s1 := f.servers[0], f.servers[1]
				sig, err := group.SignRosterUpdate(s0.roster.update, s1.grpID, s1.kp, nil)
				if err != nil {
					t.Fatal(err)
				}
				return wire.Encode(&RosterCert{Version: s0.roster.version, Sig: sig})
			},
			keepFirst: true,
		},
		{
			kind: MsgTraceBits,
			prepare: func(f *fixture, _ map[MsgType]bool) {
				d := &disruptorClient{Client: f.clients[4], victim: f.clients[0]}
				f.h.SwapEngine(f.clients[4].ID(), d)
				f.clients[0].Send(bytes.Repeat([]byte("censored speech "), 20))
			},
			holds: func(s *Server, _ *Message) bool {
				return s.blame != nil && s.blame.phase == bpTrace && s.blame.trace.has(1)
			},
			differ: func(t *testing.T, _ *fixture, m *Message) []byte {
				p := mustDecode[TraceBits](t, m.Body)
				p.ServerBit ^= 1
				return wire.Encode(p)
			},
		},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			f := newFixture(t, 3, 6, fixtureOpts{mutatePolicy: tc.policy})
			s0, s1 := f.servers[0], f.servers[1]
			s1ID, s2ID := s1.ID(), f.servers[2].ID()
			drop := map[MsgType]bool{}
			if tc.prepare != nil {
				tc.prepare(f, drop)
			}
			var first *Message
			f.h.Outbound = func(from group.NodeID, m *Message) (time.Duration, bool) {
				if m.Type == tc.kind && from == s1ID && first == nil {
					first = m
				}
				return 0, drop[m.Type] || m.Type == tc.kind && from == s2ID
			}
			f.h.StartAll()
			for i := 0; i < 2_000_000 && (first == nil || !tc.holds(s0, first)); i++ {
				if !f.h.Net.Step() {
					break
				}
			}
			if first == nil || !tc.holds(s0, first) {
				t.Fatalf("server 0 never held server 1's %s with server 2's outstanding; violations: %v",
					tc.kind, f.violations())
			}
			handle := func(body []byte) *Output {
				t.Helper()
				m, err := s1.sign(tc.kind, first.Round, body)
				if err != nil {
					t.Fatal(err)
				}
				out, err := s0.Handle(f.h.Net.Now(), m)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			charges := func(out *Output) []string {
				var kinds []string
				for _, ev := range out.Events {
					if ev.Kind == EventMisbehavior || ev.Kind == EventProtocolViolation {
						kinds = append(kinds, ev.Detail)
					}
				}
				return kinds
			}

			if got := charges(handle(first.Body)); len(got) != 0 {
				t.Fatalf("identical retransmit charged: %q", got)
			}
			got := charges(handle(tc.differ(t, f, first)))
			if tc.keepFirst {
				if len(got) != 0 {
					t.Fatalf("second valid %s charged, want it dropped: %q", tc.kind, got)
				}
				return
			}
			if len(got) != 1 || !strings.HasPrefix(got[0], "equivocation:") {
				t.Fatalf("second, different %s: charges %q, want one equivocation", tc.kind, got)
			}
			if n := f.misbehaviorCount("equivocation", s1ID); n != 0 {
				t.Fatalf("an honest run charged server 1 with equivocation %d times", n)
			}
		})
	}
}

func mustDecode[T any, P interface {
	*T
	wire.Payload
}](t *testing.T, b []byte) *T {
	t.Helper()
	p, err := decode[T, P](b)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRetransmitResendsSignedMessage: a server whose Share frames are
// dropped re-sends the message it first sent, byte for byte and
// signature included, rather than signing its body again.
func TestRetransmitResendsSignedMessage(t *testing.T) {
	f := newFixture(t, 3, 6, fixtureOpts{})
	s1ID := f.servers[1].ID()
	var round uint64
	var sent [][]byte
	f.h.Outbound = func(from group.NodeID, m *Message) (time.Duration, bool) {
		if from != s1ID || m.Type != MsgShare || len(sent) > 0 && m.Round != round {
			return 0, false
		}
		round = m.Round
		sent = append(sent, EncodeMessage(m))
		return 0, len(sent) <= 2 // the first send, to both peers
	}
	f.h.StartAll()
	for i := 0; i < 2_000_000 && len(sent) < 3; i++ {
		if !f.h.Net.Step() {
			break
		}
	}
	if len(sent) < 3 {
		t.Fatalf("server 1 sent its round-%d Share %d times, want a retransmission; violations: %v", round, len(sent), f.violations())
	}
	for i, b := range sent[1:] {
		if !bytes.Equal(b, sent[0]) {
			t.Fatalf("send %d of server 1's round-%d Share differs from the first send", i+2, round)
		}
	}
}
