package dissent

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"dissent/internal/beacon"
	"dissent/internal/core"
	"dissent/internal/obs"
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

// Session is one group membership running inside a process: a protocol
// engine bound to a message fabric, with its own timers, beacon chain,
// schedule certificate, and application channels. A Session is the
// per-group unit of the SDK: a Host runs one or many concurrently over
// one shared fabric, each isolated from the others. Obtain one from
// Host.OpenSession or Host.OpenJoiner; all methods are safe for
// concurrent use.
type Session struct {
	role Role
	def  *Group
	cfg  sessionConfig
	sid  SessionID

	engine core.Engine
	server *core.Server // nil for clients
	client *core.Client // nil for servers
	id     NodeID

	mu        sync.Mutex // engine lock; guards link/timer/lifecycle below
	link      link
	beaconSrv *http.Server
	timer     *time.Timer
	timerAt   time.Time
	started   bool
	closed    bool
	// startDone gates inbound delivery: messages arriving between the
	// transport attach and engine.Start buffer here, else an early
	// peer's message could advance the engine before Start initializes
	// it (and Start would then clobber that progress).
	startDone bool
	preStart  []core.Checked

	subMu     sync.Mutex
	subs      []*subscription
	msgs      chan RoundOutput
	chansDone bool
	// openEvents are the events the session's own open produced (a
	// restored server's EventStateRestored). They precede any possible
	// Subscribe call, so every subscription receives them first.
	openEvents []Event

	// host is the supervising Host: shutdown unregisters the session
	// from it, and TransportMetrics reads its fabric.
	host *Host
	done chan struct{}

	stats counters

	// Observability state (see obs.go): the session's structured
	// logger (session/group/role attrs attached), the phase-latency
	// histograms fed by engine round spans, and the bounded ring of
	// recent round spans.
	log    *slog.Logger
	hists  *sessionHists
	traces *obs.TraceRing
}

// traceRingCap bounds the per-session ring of recent round spans
// served at /debug/rounds and by Session.RecentTraces.
const traceRingCap = 128

type subscription struct {
	kinds map[EventKind]bool // nil = all kinds
	ch    chan Event
}

// offer hands e to the subscription if its filter admits it, dropping
// it rather than blocking when the subscriber lags.
func (sub *subscription) offer(e Event) {
	if sub.kinds != nil && !sub.kinds[e.Kind] {
		return
	}
	select {
	case sub.ch <- e:
	default: // lagging subscriber: drop
	}
}

// newMemberSession builds the engine and channels for one membership:
// a server or client named in the definition (its role located by its
// identity key), or — joiner set — a client whose key is not (yet) in
// it.
func newMemberSession(joiner bool, def *Group, keys Keys, opts []Option) (*Session, error) {
	if keys.Identity == nil {
		return nil, errors.New("dissent: keys lack an identity keypair")
	}
	role := RoleClient
	if !joiner {
		var err error
		if role, err = memberRole(def, keys); err != nil {
			return nil, err
		}
	}
	cfg := buildConfig(opts)
	sid := GroupSessionID(def)
	base := cfg.logger
	if base == nil {
		base = slog.Default()
	}
	logger := base.With("session", sid.String(), "group", def.Name, "role", role.String())
	if cfg.onError == nil {
		cfg.onError = func(err error) { logger.Warn("session error", "err", err) }
	}
	s := &Session{
		role:   role,
		def:    def,
		cfg:    cfg,
		sid:    sid,
		log:    logger,
		hists:  newSessionHists(),
		traces: obs.NewTraceRing(traceRingCap),
		msgs:   make(chan RoundOutput, cfg.msgBuf),
		done:   make(chan struct{}),
	}
	coreOpts := core.Options{
		Logger:        logger,
		PipelineDepth: cfg.pipelineDepth,
		Interdict:     cfg.interdict,
	}
	if cfg.stateStore != nil {
		// Guard the typed-nil: a nil *StateStore inside the interface
		// would pass the engine's == nil checks and panic on first use.
		coreOpts.StateStore = cfg.stateStore
		// The beacon chain rides the same store file. A damaged beacon
		// bucket refuses the open, as mid-file damage does in
		// OpenStateStore: a restored server running an empty chain
		// would sign its beacon shares over the wrong head.
		bs, err := beacon.NewKVStore(cfg.stateStore, "beacon")
		if err != nil {
			return nil, fmt.Errorf("dissent: state store beacon bucket: %w", err)
		}
		coreOpts.BeaconStore = bs
	}

	if role == RoleServer {
		if keys.MsgShuffle == nil {
			return nil, errors.New("dissent: server keys lack a message-shuffle keypair")
		}
		srv, err := core.NewServer(def, keys.Identity, keys.MsgShuffle, coreOpts)
		if err != nil {
			return nil, err
		}
		s.server, s.engine, s.id = srv, srv, srv.ID()
		return s, nil
	}
	var cl *core.Client
	var err error
	if joiner {
		cl, err = core.NewJoinerClient(def, keys.Identity, cfg.advertiseAddr, coreOpts)
	} else {
		cl, err = core.NewClient(def, keys.Identity, coreOpts)
	}
	if err != nil {
		return nil, err
	}
	s.client, s.engine, s.id = cl, cl, cl.ID()
	return s, nil
}

// recordSpans folds the round spans of one engine output into the
// session's timing record: stamp the session, feed the phase-latency
// histograms and the metric sums, and retain each span in the ring. The
// caller holds s.mu, so spans enter the ring in round order.
func (s *Session) recordSpans(out *core.Output) {
	if out == nil {
		return
	}
	for _, t := range out.Traces {
		t.Session = s.sid.String()
		s.hists.observe(t)
		s.stats.addSpan(t)
		s.traces.Push(t)
	}
}

// RecentTraces returns up to n of the session's most recent round span
// records, oldest first (all retained spans when n <= 0). The ring
// holds the last 128 rounds.
func (s *Session) RecentTraces(n int) []RoundTrace {
	return s.traces.Snapshot(n)
}

// ID returns the member's self-certifying node ID.
func (s *Session) ID() NodeID { return s.id }

// SessionID returns the session's identifier — the group's
// self-certifying ID, which also tags the session's frames on shared
// transports.
func (s *Session) SessionID() SessionID { return s.sid }

// Role returns whether this membership is a server or a client.
func (s *Session) Role() Role { return s.role }

// Group returns the group definition the session runs.
func (s *Session) Group() *Group { return s.def }

// Index returns the member's index within its role's member list.
func (s *Session) Index() int {
	if s.server != nil {
		return s.server.Index()
	}
	return s.client.Index()
}

// Slot returns a client's anonymous slot index in the current
// transmission schedule, or -1 before setup completes (and always -1
// for servers). Slots are reassigned at beacon epoch boundaries, so
// long-lived callers should re-read after EventEpochAdvanced.
func (s *Session) Slot() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.client == nil {
		return -1
	}
	return s.client.Slot()
}

// ScheduleEstablished reports whether the verifiable-shuffle setup has
// completed and the slot schedule is certified — the point from which
// Send can actually transmit and rounds proceed. Harness code polls it
// as the session's readiness signal.
func (s *Session) ScheduleEstablished() bool {
	return s.scheduleCert() != nil
}

// Addr returns the transport-level address once the session is
// attached, or "".
func (s *Session) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.link == nil {
		return ""
	}
	return s.link.Addr()
}

// Done returns a channel closed when the session has fully shut down.
func (s *Session) Done() <-chan struct{} { return s.done }

// BeaconChain returns the session's verified randomness-beacon
// replica, or nil when the group policy disables the beacon. The chain
// is safe for concurrent reads while the session runs.
func (s *Session) BeaconChain() *BeaconChain {
	if s.server != nil {
		return s.server.BeaconChain()
	}
	return s.client.BeaconChain()
}

// open attaches the session to its fabric through dial, starts the
// beacon HTTP server when configured, and runs the engine's Start. It
// may be called once; errors shut the session down (channels closed).
func (s *Session) open(dial func(*Session) (link, error)) error {
	s.mu.Lock()
	if s.started || s.closed {
		s.mu.Unlock()
		return errors.New("dissent: session already started")
	}
	s.started = true
	s.mu.Unlock()
	s.stats.openedAt.Store(time.Now().UnixNano())

	l, err := dial(s)
	if err != nil {
		s.shutdown()
		return err
	}
	s.mu.Lock()
	if s.closed { // closed between dial and here
		s.mu.Unlock()
		l.Close()
		return errors.New("dissent: session closed during open")
	}
	s.link = l
	s.mu.Unlock()

	if s.cfg.beaconAddr != "" {
		chain := s.BeaconChain()
		if chain == nil {
			s.shutdown()
			return errors.New("dissent: beacon HTTP enabled but the group policy disables the beacon")
		}
		ln, err := net.Listen("tcp", s.cfg.beaconAddr)
		if err != nil {
			s.shutdown()
			return err
		}
		hs := &http.Server{Handler: beacon.Handler(chain, s.scheduleCert)}
		s.mu.Lock()
		if s.closed { // closed while the listener came up: nothing will close hs for us
			s.mu.Unlock()
			ln.Close()
			return errors.New("dissent: session closed during open")
		}
		s.beaconSrv = hs
		s.mu.Unlock()
		go hs.Serve(ln)
	}

	s.mu.Lock()
	if s.closed { // closed while the beacon listener came up
		s.mu.Unlock()
		return errors.New("dissent: session closed during open")
	}
	// A server whose state store holds a live session snapshot resumes
	// that session instead of starting a fresh setup: RestoreFromStore
	// rebuilds the engine from the snapshot plus the durable roster
	// log, and its output re-announces us to the group. A store with no
	// snapshot falls through to the normal Start.
	var out *core.Output
	var restored bool
	if s.server != nil {
		out, restored, err = s.server.RestoreFromStore(time.Now())
		if err != nil {
			s.mu.Unlock()
			s.shutdown()
			return fmt.Errorf("dissent: session restore: %w", err)
		}
	}
	if !restored {
		out, err = s.engine.Start(time.Now())
		if err != nil {
			s.mu.Unlock()
			s.shutdown()
			return err
		}
	}
	s.recordSpans(out)
	s.startDone = true
	buffered := s.preStart
	s.preStart = nil
	s.mu.Unlock()
	// The open's events are published and retained in one step, so every
	// subscription sees them exactly once.
	s.publish(out.Events, true)
	out.Events = nil
	s.dispatch(out)
	// Replay messages that raced ahead of Start, in arrival order.
	for _, c := range buffered {
		s.handle(c)
	}
	return nil
}

// Send queues an application payload for anonymous transmission in
// the client's pseudonym slot. Payloads larger than the slot are
// fragmented across rounds; reassembly (and any framing) is the
// application's concern. Queueing succeeds before the schedule is
// established — the payload rides the first available round.
func (s *Session) Send(ctx context.Context, data []byte) error {
	if s.client == nil {
		return errors.New("dissent: Send on a server session (servers relay; only clients originate)")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("dissent: session is shut down")
	}
	s.client.Send(data)
	return nil
}

// Messages returns the channel of decoded anonymous messages — every
// certified round's slot payloads, at servers and clients alike. The
// channel closes when the session shuts down. If the application does
// not drain it, the oldest undelivered outputs are dropped (see
// WithMessageBuffer).
func (s *Session) Messages() <-chan RoundOutput { return s.msgs }

// Subscribe returns a channel of protocol events, filtered to the
// given kinds (none = every kind). The channel first carries the
// events the session's open produced — EventStateRestored when a
// server resumed from its state store — then live events. Events are
// dropped rather than blocking the protocol if the subscriber lags
// behind its 64-event buffer. The channel closes when the session
// shuts down.
func (s *Session) Subscribe(kinds ...EventKind) <-chan Event {
	sub := &subscription{ch: make(chan Event, 64)}
	if len(kinds) > 0 {
		sub.kinds = make(map[EventKind]bool, len(kinds))
		for _, k := range kinds {
			sub.kinds[k] = true
		}
	}
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if s.chansDone {
		close(sub.ch)
		return sub.ch
	}
	for _, e := range s.openEvents {
		sub.offer(e)
	}
	s.subs = append(s.subs, sub)
	return sub.ch
}

// inject feeds one inbound transport message to the engine. Its ingress
// check — the envelope signature, most of a small message's cost — runs
// here, on the transport's goroutine against the engine's published
// definition, before the engine lock: connections check in parallel, and
// under the lock the engine only takes the result.
func (s *Session) inject(m *Message) {
	s.stats.msgsIn.Add(1)
	s.stats.bytesIn.Add(uint64(m.EncodedLen()))
	s.handle(s.engine.Check(m))
}

// handle hands one checked message to the engine.
func (s *Session) handle(c core.Checked) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if !s.startDone {
		s.preStart = append(s.preStart, c)
		s.mu.Unlock()
		return
	}
	out, err := s.engine.HandleChecked(time.Now(), c)
	s.recordSpans(out)
	s.mu.Unlock()
	if err != nil {
		// Engine rejections are soft: a malformed or mistimed message
		// from the network must not stop the session.
		s.cfg.onError(err)
		return
	}
	s.dispatch(out)
}

// dispatch consumes one engine output: deliveries and events to the
// application channels, envelopes to the transport, the timer armed.
func (s *Session) dispatch(out *core.Output) {
	if out == nil {
		return
	}
	for _, d := range out.Deliveries {
		s.pushMessage(d)
	}
	s.publish(out.Events, false)
	if len(out.NewPeers) > 0 {
		// Register members admitted mid-session with the fabric before
		// transmitting: the welcome envelope below needs them routable.
		s.mu.Lock()
		l := s.link
		s.mu.Unlock()
		for _, p := range out.NewPeers {
			if l == nil || p.Addr == "" {
				continue
			}
			if err := l.AddPeer(p.ID, p.Addr); err != nil {
				s.cfg.onError(err)
			}
		}
	}
	if len(out.Send) > 0 {
		s.mu.Lock()
		l, closed := s.link, s.closed
		s.mu.Unlock()
		if l != nil && !closed {
			// A broadcast is a run of envelopes carrying one *Message; it
			// goes to the link as one send so the fabric frames it once.
			for i := 0; i < len(out.Send); {
				m := out.Send[i].Msg
				var to []NodeID
				for ; i < len(out.Send) && out.Send[i].Msg == m; i++ {
					to = append(to, out.Send[i].To)
				}
				s.stats.msgsOut.Add(uint64(len(to)))
				s.stats.bytesOut.Add(uint64(len(to) * m.EncodedLen()))
				if err := l.Send(to, m); err != nil {
					s.cfg.onError(err)
				}
			}
		}
	}
	if !out.Timer.IsZero() {
		s.armTimer(out.Timer)
	}
}

func (s *Session) pushMessage(d RoundOutput) {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if s.chansDone {
		return
	}
	for {
		select {
		case s.msgs <- d:
			return
		default:
			// Full: drop the oldest so fresh rounds win.
			select {
			case <-s.msgs:
			default:
			}
		}
	}
}

// publish feeds events to the session's counters and to its
// subscribers; retain also keeps them for subscriptions made later.
func (s *Session) publish(events []Event, retain bool) {
	if len(events) == 0 {
		return
	}
	for _, e := range events {
		s.stats.observe(e)
	}
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if retain {
		s.openEvents = events
	}
	if s.chansDone {
		return
	}
	for _, e := range events {
		for _, sub := range s.subs {
			sub.offer(e)
		}
	}
}

// armTimer keeps the earliest requested engine wakeup: engines request
// timers liberally (window close, hard deadline) and ticks are
// idempotent, so only the soonest pending one matters.
func (s *Session) armTimer(at time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if !s.timerAt.IsZero() && !at.Before(s.timerAt) {
		return // an earlier wakeup is already pending
	}
	d := time.Until(at)
	if d < 0 {
		d = 0
	}
	if s.timer != nil {
		s.timer.Stop()
	}
	s.timerAt = at
	s.timer = time.AfterFunc(d, s.tick)
}

func (s *Session) tick() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.timerAt = time.Time{}
	out, err := s.engine.Tick(time.Now())
	s.recordSpans(out)
	s.mu.Unlock()
	if err != nil {
		s.cfg.onError(err)
		return
	}
	s.dispatch(out)
}

// scheduleCert exposes the session's certified schedule to the beacon
// HTTP handler (nil until setup completes). Servers retain the
// certificate they assembled; clients the one they verified — either
// suffices for an external verifier to derive the session genesis.
func (s *Session) scheduleCert() *beacon.ScheduleCert {
	s.mu.Lock()
	defer s.mu.Unlock()
	var keys, sigs [][]byte
	if s.server != nil {
		keys, sigs = s.server.ScheduleCertificate()
	} else {
		keys, sigs = s.client.ScheduleCertificate()
	}
	if keys == nil {
		return nil
	}
	return &beacon.ScheduleCert{Keys: keys, Sigs: sigs}
}

// Close tears the session down: transport detached, timers stopped,
// beacon HTTP server closed, application channels closed, and the
// host's registry updated. Close is idempotent and returns nil once
// shutdown completes.
func (s *Session) Close() error {
	s.shutdown()
	return nil
}

// shutdown tears the session down exactly once.
func (s *Session) shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.timer != nil {
		s.timer.Stop()
	}
	l := s.link
	s.link = nil
	hs := s.beaconSrv
	s.beaconSrv = nil
	s.mu.Unlock()

	if hs != nil {
		hs.Close()
	}
	if l != nil {
		l.Close() // joins transport readers; late injects see closed
	}

	s.subMu.Lock()
	s.chansDone = true
	for _, sub := range s.subs {
		close(sub.ch)
	}
	close(s.msgs)
	s.subMu.Unlock()

	close(s.done)
	s.host.sessionClosed(s)
}
