package dissent

import (
	"errors"
	"time"

	"dissent/internal/simnet"
)

// SimNet is the in-process transport: a real-time message fabric with
// an optional latency model, built on the same hub the discrete-event
// simulator package provides. A group whose members each run on a Host
// over one SimNet (WithHostSimNet) runs the full production protocol —
// signed messages, verifiable shuffle, certified rounds — without
// sockets, making it the medium for tests, examples, and embedded
// single-process deployments.
//
// Like the TCP fabric, one SimNet carries many concurrent groups: the
// hub routes by (session, member), so the sessions of many Hosts and
// many groups share one SimNet without their messages ever crossing
// sessions.
type SimNet struct {
	hub *simnet.Hub
}

// NewSimNet creates an empty in-process network.
func NewSimNet() *SimNet {
	return &SimNet{hub: simnet.NewHub()}
}

// SetLatency installs a one-way propagation delay model (for example,
// 10 ms server–server and 50 ms client–server to mimic the paper's
// DeterLab topology). Call before any session opens; fn must be a pure
// function of the endpoint pair so per-pair delivery order is
// preserved.
func (s *SimNet) SetLatency(fn func(from, to NodeID) time.Duration) {
	s.hub.Latency = fn
}

// FaultSpec models an impaired link for fault-injection tests: extra
// latency, uniform jitter on top, a probabilistic drop rate, and a
// hard partition until a deadline. Jitter never reorders a directed
// pair's stream — delivery stays TCP-like FIFO.
type FaultSpec = simnet.FaultSpec

// SetLinkFault installs a fault model on the (undirected) link between
// two members, applying in both directions. Draws come from a seeded
// deterministic RNG (SetFaultSeed), so failing tests replay exactly.
func (s *SimNet) SetLinkFault(a, b NodeID, spec FaultSpec) {
	s.hub.SetLinkFault(a, b, spec)
}

// ClearLinkFault removes a link's fault model.
func (s *SimNet) ClearLinkFault(a, b NodeID) { s.hub.ClearLinkFault(a, b) }

// ScheduleLinkFault arms a timed fault window on the link between two
// members: after `after` elapses the spec installs (both directions),
// and `duration` later it clears again (a zero duration leaves the
// fault until ClearLinkFault). Scenario harnesses pre-program a run's
// whole fault schedule this way before the workload starts; windows
// still pending when the network closes are cancelled.
func (s *SimNet) ScheduleLinkFault(a, b NodeID, spec FaultSpec, after, duration time.Duration) {
	s.hub.ScheduleLinkFault(a, b, spec, after, duration)
}

// SetFaultSeed seeds the fault-injection RNG (default 1).
func (s *SimNet) SetFaultSeed(seed int64) { s.hub.SetFaultSeed(seed) }

// Close tears the network down, detaching every member of every session.
func (s *SimNet) Close() { s.hub.Close() }

// dial attaches member self of session sid to the hub.
func (s *SimNet) dial(sid SessionID, self NodeID, recv func(*Message)) (link, error) {
	if err := s.hub.AttachSession([32]byte(sid), self, func(p any) { recv(p.(*Message)) }); err != nil {
		return nil, err
	}
	return &simLink{net: s, self: self, sid: sid}, nil
}

type simLink struct {
	net  *SimNet
	self NodeID
	sid  SessionID
}

func (l *simLink) Send(to []NodeID, m *Message) error {
	var errs []error
	for _, id := range to {
		if err := l.net.hub.SendSession([32]byte(l.sid), l.self, id, m); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func (l *simLink) Addr() string { return "sim:" + l.self.String() }

func (l *simLink) AddPeer(NodeID, string) error { return nil }

func (l *simLink) Close() error {
	l.net.hub.DetachSession([32]byte(l.sid), l.self)
	return nil
}
