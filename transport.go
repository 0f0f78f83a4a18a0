package dissent

import (
	"dissent/internal/transport"
)

// Transport connects a Node to its group's message fabric. The SDK
// ships two implementations — TCP for deployment and SimNet for
// in-process groups — and a Node runs identically over either; custom
// implementations (QUIC, TLS tunnels, test interceptors) plug in the
// same way.
//
// A transport is always session-scoped: every attachment names the
// group session it belongs to, and the fabric carries that ID with
// each message, so a peer serving several groups behind one listener
// (a Host) routes traffic to the right session.
type Transport interface {
	// Dial attaches a node to session sid: inbound messages of that
	// session are handed to recv (the transport may call it from
	// multiple goroutines; the Node serializes), soft I/O errors to
	// onError (may be nil). The returned Link carries the session's
	// outbound traffic until closed.
	Dial(sid SessionID, self NodeID, recv func(*Message), onError func(error)) (Link, error)
}

// peerAdder is an optional Link extension for address-based fabrics:
// members admitted by a roster update mid-session are registered so
// outbound traffic can reach them. SimNet links route by node ID and
// need no registration.
type peerAdder interface {
	AddPeer(id NodeID, addr string) error
}

// Link is one attached node's handle on the transport.
type Link interface {
	// Send transmits one protocol message to each listed group member.
	// A broadcast arrives as one call, so a fabric that serializes
	// messages encodes m once for all recipients; m is shared and must
	// not be modified. An unreachable recipient does not hold up the
	// others.
	Send(to []NodeID, m *Message) error
	// Addr returns the transport-level local address ("" when the
	// medium has none).
	Addr() string
	// Close detaches the node and releases transport resources.
	Close() error
}

// TCP returns the deployment transport: a listener on `listen` plus
// lazily dialed connections to the roster's addresses. The roster must
// cover every member the node exchanges messages with (servers: all
// servers and their attached clients; clients: their upstream server).
// The roster map is read at send time and must not be mutated once the
// node runs.
func TCP(listen string, roster Roster) Transport {
	return &tcpTransport{listen: listen, roster: roster}
}

type tcpTransport struct {
	listen string
	roster Roster
}

func (t *tcpTransport) Dial(sid SessionID, self NodeID, recv func(*Message), onError func(error)) (Link, error) {
	mesh, err := transport.NewMesh(t.listen, onError)
	if err != nil {
		return nil, err
	}
	tsid := transport.SessionID(sid)
	if err := mesh.Bind(tsid, t.roster, recv); err != nil {
		mesh.Close()
		return nil, err
	}
	return tcpLink{mesh: mesh, sid: tsid}, nil
}

// meshStatser lets the SDK surface connection health from links backed
// by the built-in TCP mesh (see Session.TransportMetrics).
type meshStatser interface {
	meshStats() transport.Stats
}

// tcpLink owns its mesh: Close tears the whole listener down.
type tcpLink struct {
	mesh *transport.Mesh
	sid  transport.SessionID
}

func (l tcpLink) Send(to []NodeID, m *Message) error { return l.mesh.Broadcast(l.sid, to, m) }
func (l tcpLink) Addr() string                       { return l.mesh.Addr() }
func (l tcpLink) Close() error                       { return l.mesh.Close() }
func (l tcpLink) AddPeer(id NodeID, addr string) error {
	return l.mesh.AddPeer(l.sid, id, addr)
}
func (l tcpLink) meshStats() transport.Stats { return l.mesh.Stats() }

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
func (l meshSessionLink) Addr() string { return l.mesh.Addr() }
func (l meshSessionLink) Close() error { l.mesh.Unbind(l.sid); return nil }
func (l meshSessionLink) AddPeer(id NodeID, addr string) error {
	return l.mesh.AddPeer(l.sid, id, addr)
}
func (l meshSessionLink) meshStats() transport.Stats { return l.mesh.Stats() }
