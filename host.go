package dissent

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"dissent/internal/transport"
)

// Host runs many concurrent Dissent sessions — one per group — in a
// single process over one shared message fabric. The fabric (a TCP
// listener carrying session-tagged frames, or an in-process SimNet
// hub) is mechanism shared by every session; each session keeps its
// own policy: engine, timers, beacon chain, schedule certificate, and
// application channels. Sessions are opened and torn down
// independently with OpenSession and CloseSession; Close shuts the
// whole host down. All methods are safe for concurrent use.
type Host struct {
	cfg  hostConfig
	log  *slog.Logger    // host logger, host-addr attr attached
	mesh *transport.Mesh // TCP fabric; nil when sim is set
	sim  *SimNet

	mu       sync.Mutex
	sessions map[SessionID]*Session
	closed   bool
	opened   uint64
	closedN  uint64
	retired  retiredTotals
	openedAt time.Time
}

// retiredTotals carries closed sessions' counters so host aggregates
// stay cumulative.
type retiredTotals struct {
	msgsIn, msgsOut   uint64
	bytesIn, bytesOut uint64
	rounds, failed    uint64
}

// HostOption tunes Host construction.
type HostOption func(*hostConfig)

type hostConfig struct {
	listenAddr string
	sim        *SimNet
	onError    func(error)
	onErrorSet bool // user-supplied handler: sessions inherit it too
	logger     *slog.Logger
}

// WithHostListenAddr sets the shared TCP listen address every session
// runs behind. Default ":0". Ignored when WithHostSimNet is given.
func WithHostListenAddr(addr string) HostOption {
	return func(c *hostConfig) { c.listenAddr = addr }
}

// WithHostSimNet runs the host's sessions over an in-process SimNet
// instead of TCP — many groups, one hub, no sockets. The caller
// retains ownership of the SimNet (it is not closed by Host.Close).
func WithHostSimNet(net *SimNet) HostOption {
	return func(c *hostConfig) { c.sim = net }
}

// WithHostErrorHandler observes soft errors from the shared fabric —
// read failures, frames for unbound sessions — and is the default
// error handler for sessions opened without WithErrorHandler. When
// omitted, fabric errors log at Warn through the host's structured
// logger (with the host's address attached), and each session's soft
// errors log through its own session logger.
func WithHostErrorHandler(fn func(error)) HostOption {
	return func(c *hostConfig) { c.onError, c.onErrorSet = fn, true }
}

// WithHostLogger routes the host's structured logs — fabric soft
// errors, and every hosted session's engine logs unless a session sets
// its own WithLogger — through the given logger. Default
// slog.Default().
func WithHostLogger(l *slog.Logger) HostOption {
	return func(c *hostConfig) { c.logger = l }
}

// NewHost creates a host and binds its shared fabric: a TCP listener
// on the configured address, or the given SimNet.
func NewHost(opts ...HostOption) (*Host, error) {
	cfg := hostConfig{listenAddr: ":0"}
	for _, o := range opts {
		o(&cfg)
	}
	base := cfg.logger
	if base == nil {
		base = slog.Default()
	}
	h := &Host{
		cfg:      cfg,
		log:      base,
		sessions: make(map[SessionID]*Session),
		openedAt: time.Now(),
	}
	if cfg.onError == nil {
		// Resolved through h.log so the handler picks up the host-addr
		// attribute attached below, once the fabric is bound.
		h.cfg.onError = func(err error) { h.log.Warn("host error", "err", err) }
	}
	if cfg.sim != nil {
		h.sim = cfg.sim
		h.log = base.With("host", h.Addr())
		return h, nil
	}
	mesh, err := transport.NewMesh(cfg.listenAddr, h.cfg.onError)
	if err != nil {
		return nil, err
	}
	h.mesh = mesh
	h.log = base.With("host", h.Addr())
	return h, nil
}

// Addr returns the shared listener's address ("sim" on a SimNet host).
func (h *Host) Addr() string {
	if h.mesh != nil {
		return h.mesh.Addr()
	}
	return "sim"
}

// OpenSession starts one group membership on the host's shared fabric
// and returns its Session handle, already attached and running. The
// member's role is located by its identity key within the definition
// (servers need the message-shuffle key too, exactly as NewServer).
// Over TCP, the session requires WithRoster — remote peers of this
// group dial the host's shared address; WithTransport and
// WithListenAddr do not apply to host sessions. One host runs at most
// one membership per group.
func (h *Host) OpenSession(def *Group, keys Keys, opts ...Option) (*Session, error) {
	role, err := memberRole(def, keys)
	if err != nil {
		return nil, err
	}
	// Sessions inherit the host's logger (host-addr attr included) and,
	// when the embedder installed one, its error handler. Prepended, so
	// per-session WithLogger/WithErrorHandler options still win; with no
	// handler anywhere, session errors log through the session logger.
	inherited := []Option{WithLogger(h.log)}
	if h.cfg.onErrorSet {
		inherited = append(inherited, WithErrorHandler(h.cfg.onError))
	}
	opts = append(inherited, opts...)
	s, err := newMemberSession(role, def, keys, opts)
	if err != nil {
		return nil, err
	}
	if s.cfg.transport != nil {
		return nil, errors.New("dissent: WithTransport does not apply to host sessions (the host supplies the fabric)")
	}
	if s.cfg.listenAddrSet {
		return nil, errors.New("dissent: WithListenAddr does not apply to host sessions (they share the host's listener)")
	}
	if h.mesh != nil && s.cfg.roster == nil {
		return nil, errors.New("dissent: OpenSession over TCP requires WithRoster")
	}

	sid := s.sid
	s.onClose = h.sessionClosed
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, errors.New("dissent: host closed")
	}
	if _, dup := h.sessions[sid]; dup {
		h.mu.Unlock()
		return nil, fmt.Errorf("dissent: session %s already open on this host", sid)
	}
	h.sessions[sid] = s
	h.opened++
	h.mu.Unlock()

	var dial dialFunc
	if h.sim != nil {
		dial = func(recv func(*Message), onError func(error)) (Link, error) {
			return h.sim.Dial(sid, s.id, recv, onError)
		}
	} else {
		dial = func(recv func(*Message), onError func(error)) (Link, error) {
			tsid := transport.SessionID(sid)
			if err := h.mesh.Bind(tsid, s.cfg.roster, recv); err != nil {
				return nil, err
			}
			return meshSessionLink{mesh: h.mesh, sid: tsid}, nil
		}
	}
	if err := s.open(dial); err != nil {
		// open shut the session down; sessionClosed already
		// unregistered it.
		return nil, err
	}
	return s, nil
}

// CloseSession tears down the session running the given group,
// independently of every other session on the host.
func (h *Host) CloseSession(sid SessionID) error {
	h.mu.Lock()
	s := h.sessions[sid]
	h.mu.Unlock()
	if s == nil {
		return fmt.Errorf("dissent: no open session %s", sid)
	}
	return s.Close()
}

// Session returns the open session for a group, or nil.
func (h *Host) Session(sid SessionID) *Session {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sessions[sid]
}

// Sessions returns the currently open sessions.
func (h *Host) Sessions() []*Session {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*Session, 0, len(h.sessions))
	for _, s := range h.sessions {
		out = append(out, s)
	}
	return out
}

// Admit pre-approves an identity key for admission on the session
// running the given group; see Session.Admit.
func (h *Host) Admit(sid SessionID, encodedPub []byte) error {
	s := h.Session(sid)
	if s == nil {
		return fmt.Errorf("dissent: no open session %s", sid)
	}
	return s.Admit(encodedPub)
}

// Expel queues a client's removal at the next epoch boundary on the
// session running the given group; see Session.Expel.
func (h *Host) Expel(sid SessionID, id NodeID) error {
	s := h.Session(sid)
	if s == nil {
		return fmt.Errorf("dissent: no open session %s", sid)
	}
	return s.Expel(id)
}

// sessionClosed is the Session.onClose hook: unregister and fold the
// session's final counters into the host's cumulative totals.
func (h *Host) sessionClosed(s *Session) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.sessions[s.sid] != s {
		return
	}
	delete(h.sessions, s.sid)
	h.closedN++
	h.retired.msgsIn += s.stats.msgsIn.Load()
	h.retired.msgsOut += s.stats.msgsOut.Load()
	h.retired.bytesIn += s.stats.bytesIn.Load()
	h.retired.bytesOut += s.stats.bytesOut.Load()
	h.retired.rounds += s.stats.rounds.Load()
	h.retired.failed += s.stats.failed.Load()
}

// Close shuts the host down: every session torn down, then the shared
// TCP listener closed. A SimNet fabric is left to its owner.
func (h *Host) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	open := make([]*Session, 0, len(h.sessions))
	for _, s := range h.sessions {
		open = append(open, s)
	}
	h.mu.Unlock()
	for _, s := range open {
		s.Close()
	}
	if h.mesh != nil {
		return h.mesh.Close()
	}
	return nil
}

// Metrics returns a point-in-time snapshot aggregating every open
// session plus the cumulative totals of sessions already closed.
func (h *Host) Metrics() HostMetrics {
	h.mu.Lock()
	open := make([]*Session, 0, len(h.sessions))
	for _, s := range h.sessions {
		open = append(open, s)
	}
	m := HostMetrics{
		Addr:            h.Addr(),
		Uptime:          time.Since(h.openedAt),
		Sessions:        len(open),
		SessionsOpened:  h.opened,
		SessionsClosed:  h.closedN,
		MessagesIn:      h.retired.msgsIn,
		MessagesOut:     h.retired.msgsOut,
		BytesIn:         h.retired.bytesIn,
		BytesOut:        h.retired.bytesOut,
		RoundsCompleted: h.retired.rounds,
		RoundsFailed:    h.retired.failed,
	}
	h.mu.Unlock()
	for _, s := range open {
		sm := s.Metrics()
		m.MessagesIn += sm.MessagesIn
		m.MessagesOut += sm.MessagesOut
		m.BytesIn += sm.BytesIn
		m.BytesOut += sm.BytesOut
		m.RoundsCompleted += sm.RoundsCompleted
		m.RoundsFailed += sm.RoundsFailed
		m.PerSession = append(m.PerSession, sm)
	}
	if h.mesh != nil {
		m.Transport = transportMetrics(h.mesh.Stats())
	}
	return m
}

// memberRole locates the identity key within the definition: a match
// in the server list makes the session a server, in the client list a
// client.
func memberRole(def *Group, keys Keys) (Role, error) {
	if keys.Identity == nil {
		return 0, errors.New("dissent: keys lack an identity keypair")
	}
	g := def.Group()
	want := string(g.Encode(keys.Identity.Public))
	for _, m := range def.Servers {
		if string(g.Encode(m.PubKey)) == want {
			return RoleServer, nil
		}
	}
	for _, m := range def.Clients {
		if string(g.Encode(m.PubKey)) == want {
			return RoleClient, nil
		}
	}
	return 0, errors.New("dissent: keys do not belong to any member of the group")
}
