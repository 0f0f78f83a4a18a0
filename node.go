package dissent

import (
	"context"
	"errors"
)

// Role distinguishes the two kinds of group members.
type Role int

// Roles.
const (
	// RoleServer is one of the group's anytrust servers.
	RoleServer Role = iota + 1
	// RoleClient is an anonymity-set member.
	RoleClient
)

func (r Role) String() string {
	switch r {
	case RoleServer:
		return "server"
	case RoleClient:
		return "client"
	default:
		return "unknown"
	}
}

// Node is one running group member: a protocol engine bound to a
// transport, with a context-based lifecycle and channel-based
// application APIs. Construct with NewServer or NewClient, then call
// Run; Send queues anonymous payloads (clients), Messages delivers the
// anonymous channel's cleartext, Subscribe observes protocol events.
// All methods are safe for concurrent use.
//
// A Node wraps exactly one Session — the per-group engine unit — and
// owns its lifecycle through Run(ctx). Processes that serve many
// groups at once use a Host instead, which runs many Sessions over one
// shared listener.
type Node struct {
	s *Session
}

// NewServer builds a server node. keys must hold both the identity
// keypair and the message-shuffle keypair (dissentcfg.LoadKeys reads
// both from a server key file).
func NewServer(def *Group, keys Keys, opts ...Option) (*Node, error) {
	if keys.Identity == nil {
		return nil, errors.New("dissent: server keys lack an identity keypair")
	}
	s, err := newMemberSession(RoleServer, def, keys, opts)
	if err != nil {
		return nil, err
	}
	return &Node{s: s}, nil
}

// NewClient builds a client node from an identity keypair.
func NewClient(def *Group, keys Keys, opts ...Option) (*Node, error) {
	if keys.Identity == nil {
		return nil, errors.New("dissent: client keys lack an identity keypair")
	}
	s, err := newMemberSession(RoleClient, def, keys, opts)
	if err != nil {
		return nil, err
	}
	return &Node{s: s}, nil
}

// Session returns the node's underlying per-group engine unit: the
// same handle a Host hands out from OpenSession.
func (n *Node) Session() *Session { return n.s }

// ID returns the node's self-certifying member ID.
func (n *Node) ID() NodeID { return n.s.ID() }

// Role returns whether this node is a server or a client.
func (n *Node) Role() Role { return n.s.Role() }

// Group returns the group definition the node belongs to.
func (n *Node) Group() *Group { return n.s.Group() }

// Index returns the node's index within its role's member list.
func (n *Node) Index() int { return n.s.Index() }

// Slot returns a client's anonymous slot index, or -1 before setup
// completes (and always -1 for servers); see Session.Slot.
func (n *Node) Slot() int { return n.s.Slot() }

// ScheduleEstablished reports whether the shuffle setup has completed
// and rounds can proceed; see Session.ScheduleEstablished.
func (n *Node) ScheduleEstablished() bool { return n.s.ScheduleEstablished() }

// Addr returns the transport-level address once Run has attached the
// node, or "".
func (n *Node) Addr() string { return n.s.Addr() }

// BeaconChain returns the node's verified randomness-beacon replica,
// or nil when the group policy disables the beacon. The chain is safe
// for concurrent reads while the node runs.
func (n *Node) BeaconChain() *BeaconChain { return n.s.BeaconChain() }

// Metrics returns a point-in-time snapshot of the node's protocol and
// traffic counters.
func (n *Node) Metrics() SessionMetrics { return n.s.Metrics() }

// Run attaches the node to its transport, starts the protocol engine,
// and serves until ctx is cancelled, then shuts down gracefully:
// transport closed, timers stopped, Messages and subscription channels
// closed. It returns nil after a clean ctx-driven shutdown and an
// error if startup fails. Run may be called once.
func (n *Node) Run(ctx context.Context) error {
	s := n.s
	tr := s.cfg.transport
	if tr == nil {
		if s.cfg.roster == nil {
			s.mu.Lock()
			alreadyStarted := s.started || s.closed
			s.mu.Unlock()
			if alreadyStarted {
				return errors.New("dissent: Run called twice")
			}
			s.Close()
			return errors.New("dissent: no transport configured (use WithTransport, or WithListenAddr+WithRoster for TCP)")
		}
		tr = TCP(s.cfg.listenAddr, s.cfg.roster)
	}
	dial := func(recv func(*Message), onError func(error)) (Link, error) {
		return tr.Dial(s.sid, s.id, recv, onError)
	}
	if err := s.open(dial); err != nil {
		return err
	}
	// The session can also die out-of-band (Session.Close via the
	// Session() handle); Run must not keep blocking on a dead engine.
	select {
	case <-ctx.Done():
	case <-s.Done():
	}
	s.Close()
	return nil
}

// Send queues an application payload for anonymous transmission in
// the client's pseudonym slot. Payloads larger than the slot are
// fragmented across rounds; reassembly (and any framing) is the
// application's concern. Queueing succeeds before the schedule is
// established — the payload rides the first available round.
func (n *Node) Send(ctx context.Context, data []byte) error {
	if n.s.client == nil {
		return errors.New("dissent: Send on a server node (servers relay; only clients originate)")
	}
	return n.s.Send(ctx, data)
}

// Messages returns the channel of decoded anonymous messages — every
// certified round's slot payloads, at servers and clients alike. The
// channel closes when the node shuts down. If the application does not
// drain it, the oldest undelivered outputs are dropped (see
// WithMessageBuffer).
func (n *Node) Messages() <-chan RoundOutput { return n.s.Messages() }

// Subscribe returns a channel of protocol events, filtered to the
// given kinds (none = every kind). Events are dropped rather than
// blocking the protocol if the subscriber lags behind its 64-event
// buffer. The channel closes when the node shuts down.
func (n *Node) Subscribe(kinds ...EventKind) <-chan Event { return n.s.Subscribe(kinds...) }
