package dissent

import (
	"dissent/internal/transport"
)

// link is one session's handle on its host's fabric: meshSessionLink
// over TCP, simLink over a SimNet. The fabric carries the session ID
// with each message, so one listener (or one hub) serves every session
// of a Host.
type link interface {
	// Send transmits one protocol message to each listed group member.
	// A broadcast arrives as one call, so a fabric that serializes
	// messages encodes m once for all recipients; m is shared and must
	// not be modified. An unreachable recipient does not hold up the
	// others.
	Send(to []NodeID, m *Message) error
	// AddPeer makes a member admitted mid-session reachable at its
	// advertised address. A SimNet routes by member ID and ignores it.
	AddPeer(id NodeID, addr string) error
	// Addr returns the fabric-level local address.
	Addr() string
	// Close detaches the session and releases its fabric resources.
	Close() error
}

// meshSessionLink is one Host session's handle on the shared mesh:
// Close unbinds only this session, leaving the listener (and the other
// sessions) running.
type meshSessionLink struct {
	mesh *transport.Mesh
	sid  transport.SessionID
}

func (l meshSessionLink) Send(to []NodeID, m *Message) error {
	return l.mesh.Broadcast(l.sid, to, m)
}
func (l meshSessionLink) AddPeer(id NodeID, addr string) error {
	return l.mesh.AddPeer(l.sid, id, addr)
}
func (l meshSessionLink) Addr() string { return l.mesh.Addr() }
func (l meshSessionLink) Close() error { l.mesh.Unbind(l.sid); return nil }
