package dissent

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dissent/internal/core"
	"dissent/internal/transport"
)

// SessionMetrics is a point-in-time snapshot of one session's protocol
// and traffic counters. Byte counts use the protocol's approximate
// on-the-wire message size (header + body + signature); they track
// real socket traffic closely but are not an exact octet count.
type SessionMetrics struct {
	// Session is the session's identifier (the group ID).
	Session SessionID `json:"session"`
	// Group is the group definition's human-readable name.
	Group string `json:"group"`
	// Role is "server" or "client".
	Role string `json:"role"`
	// Uptime is the time since the session attached to its fabric.
	Uptime time.Duration `json:"uptime_ns"`
	// MessagesIn/MessagesOut count protocol messages handled/sent.
	MessagesIn  uint64 `json:"messages_in"`
	MessagesOut uint64 `json:"messages_out"`
	// BytesIn/BytesOut count approximate wire bytes handled/sent.
	BytesIn  uint64 `json:"bytes_in"`
	BytesOut uint64 `json:"bytes_out"`
	// RoundsCompleted counts certified DC-net rounds observed;
	// RoundsFailed counts hard-timeout rounds.
	RoundsCompleted uint64 `json:"rounds_completed"`
	RoundsFailed    uint64 `json:"rounds_failed"`
	// LastRound is the most recently certified round number.
	LastRound uint64 `json:"last_round"`
	// RoundsPerSec is RoundsCompleted over the session's uptime.
	RoundsPerSec float64 `json:"rounds_per_sec"`
	// WindowsClosed counts submission-window closures at servers, and
	// WindowTime their cumulative duration (from each round's start —
	// the previous certification — to its window close): the paper's
	// "client submission" share of round time.
	WindowsClosed uint64        `json:"windows_closed"`
	WindowTime    time.Duration `json:"window_time_ns"`
	// PadComputeTime is cumulative critical-path DC-net pad expansion
	// time (server: residual pad work at window close; client:
	// ciphertext build at submit). CombineTime is the server's
	// cumulative combine latency (ciphertext fold + share assembly).
	// PadPrefetchHits/Misses count rounds served from (resp. without) a
	// prefetched pad. Together they make the PR 5 data-plane speedups
	// observable from `dissentd -metrics`.
	PadComputeTime    time.Duration `json:"pad_compute_ns"`
	CombineTime       time.Duration `json:"combine_ns"`
	PadPrefetchHits   uint64        `json:"pad_prefetch_hits"`
	PadPrefetchMisses uint64        `json:"pad_prefetch_misses"`
	// PipelineDepth is the configured round pipeline depth (see
	// WithPipelineDepth); RoundsInFlight is the current occupancy —
	// rounds between window open and retirement (servers; clients report
	// their submitted-but-uncertified count).
	PipelineDepth  int `json:"pipeline_depth"`
	RoundsInFlight int `json:"rounds_in_flight"`
	// ChurnJoins/ChurnExpels count members admitted and removed by
	// certified roster updates this session observed; RosterVersion is
	// the current certified roster version (see PR 4's epoch churn).
	ChurnJoins    uint64 `json:"churn_joins"`
	ChurnExpels   uint64 `json:"churn_expels"`
	RosterVersion uint64 `json:"roster_version"`
	// StateRestores counts live-session resumes from the durable state
	// store (servers); ReplicaResyncs counts schedule-replica
	// replacements from a certified snapshot (clients).
	StateRestores  uint64 `json:"state_restores"`
	ReplicaResyncs uint64 `json:"replica_resyncs"`
	// BlameRounds counts accusation shuffles this session observed
	// opening (blame is a round-schedule interruption, so this is also
	// the count of rounds sacrificed to tracing).
	BlameRounds uint64 `json:"blame_rounds"`
	// Misbehavior counts attributed protocol offenses by kind (the
	// EventMisbehavior detail prefix: bad-signature, malformed,
	// equivocation, bad-certificate, withholding, replay, flood,
	// escalated). Empty on sessions that never observed an offense.
	Misbehavior map[string]uint64 `json:"misbehavior_observed,omitempty"`
}

// HostMetrics aggregates a Host's sessions, including totals carried
// over from sessions that have since closed.
type HostMetrics struct {
	// Addr is the shared listener's address ("sim" on a SimNet host).
	Addr string `json:"addr"`
	// Uptime is the time since the host was created.
	Uptime time.Duration `json:"uptime_ns"`
	// Sessions is the number of currently open sessions;
	// SessionsOpened/SessionsClosed are lifetime counts.
	Sessions       int    `json:"sessions"`
	SessionsOpened uint64 `json:"sessions_opened"`
	SessionsClosed uint64 `json:"sessions_closed"`
	// Aggregated traffic and round counters (open + closed sessions).
	MessagesIn      uint64 `json:"messages_in"`
	MessagesOut     uint64 `json:"messages_out"`
	BytesIn         uint64 `json:"bytes_in"`
	BytesOut        uint64 `json:"bytes_out"`
	RoundsCompleted uint64 `json:"rounds_completed"`
	RoundsFailed    uint64 `json:"rounds_failed"`
	// PerSession holds a snapshot of every currently open session.
	PerSession []SessionMetrics `json:"per_session"`
	// Transport reports the TCP fabric's connection health: dial
	// failures, dropped frames, and per-peer state. Nil on SimNet hosts
	// (the in-process fabric has no connections to fail).
	Transport *TransportMetrics `json:"transport,omitempty"`
}

// TransportMetrics is the TCP fabric's connection-health snapshot, the
// SDK face of the mesh transport's internal accounting. Harness runs
// use it to attribute fault-window degradation to the transport layer.
type TransportMetrics struct {
	// DialFailures counts failed outbound dial attempts (retries of a
	// backing-off dial each count).
	DialFailures uint64 `json:"dial_failures"`
	// FramesDropped counts outbound protocol frames lost to dial or
	// write failures.
	FramesDropped uint64 `json:"frames_dropped"`
	// Peers holds per-address connection health, sorted by address.
	Peers []TransportPeer `json:"peers,omitempty"`
}

// TransportPeer is one outbound peer's connection health.
type TransportPeer struct {
	// Addr is the peer's dial address.
	Addr string `json:"addr"`
	// State is "dialing", "connected", or "failed".
	State string `json:"state"`
	// Dials counts connection attempts, including retries.
	Dials uint64 `json:"dials"`
	// LastError is the most recent dial or write error, if any.
	LastError string `json:"last_error,omitempty"`
}

// transportMetrics converts the internal mesh snapshot.
func transportMetrics(s transport.Stats) *TransportMetrics {
	tm := &TransportMetrics{
		DialFailures:  s.DialFailures,
		FramesDropped: s.FramesDropped,
	}
	for _, p := range s.Peers {
		tm.Peers = append(tm.Peers, TransportPeer{
			Addr: p.Addr, State: p.State, Dials: p.Dials, LastError: p.LastError,
		})
	}
	return tm
}

// counters is the live, lock-free counter set behind SessionMetrics.
type counters struct {
	openedAt atomic.Int64 // unix-nanos; 0 until the session opens

	msgsIn, msgsOut   atomic.Uint64
	bytesIn, bytesOut atomic.Uint64

	rounds, failed atomic.Uint64
	lastRound      atomic.Uint64

	windows     atomic.Uint64
	windowNanos atomic.Int64
	phaseStart  atomic.Int64 // unix-nanos of the current round's start

	joins, expels atomic.Uint64

	restores, resyncs atomic.Uint64

	blameRounds atomic.Uint64

	// misbehavior counts attributed offenses by kind. The map is
	// mutex-guarded (not atomic like its siblings): writes come one
	// event at a time off the engine and reads are scrapes.
	misMu       sync.Mutex
	misbehavior map[string]uint64
}

// misbehaviorKind extracts the kind prefix from an EventMisbehavior
// detail ("<kind>: <cause>").
func misbehaviorKind(detail string) string {
	if i := strings.IndexByte(detail, ':'); i > 0 {
		return detail[:i]
	}
	return detail
}

func (c *counters) observeMisbehavior(kind string) {
	c.misMu.Lock()
	if c.misbehavior == nil {
		c.misbehavior = make(map[string]uint64)
	}
	c.misbehavior[kind]++
	c.misMu.Unlock()
}

// misbehaviorSnapshot copies the per-kind offense counts (nil when
// none were observed).
func (c *counters) misbehaviorSnapshot() map[string]uint64 {
	c.misMu.Lock()
	defer c.misMu.Unlock()
	if len(c.misbehavior) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(c.misbehavior))
	for k, v := range c.misbehavior {
		out[k] = v
	}
	return out
}

// observe folds one engine event into the counters.
func (c *counters) observe(e Event) {
	now := time.Now().UnixNano()
	switch e.Kind {
	case core.EventScheduleReady:
		c.phaseStart.Store(now)
	case core.EventWindowClosed:
		c.windows.Add(1)
		if start := c.phaseStart.Load(); start != 0 {
			c.windowNanos.Add(now - start)
		}
	case core.EventRoundComplete:
		c.rounds.Add(1)
		c.lastRound.Store(e.Round)
		c.phaseStart.Store(now)
	case core.EventRoundFailed:
		c.failed.Add(1)
		c.phaseStart.Store(now)
	case core.EventMemberJoined:
		c.joins.Add(1)
	case core.EventMemberExpelled:
		c.expels.Add(1)
	case core.EventStateRestored:
		c.restores.Add(1)
	case core.EventReplicaResynced:
		c.resyncs.Add(1)
	case core.EventBlameStarted:
		c.blameRounds.Add(1)
	case core.EventMisbehavior:
		c.observeMisbehavior(misbehaviorKind(e.Detail))
	}
}

// Metrics returns a point-in-time snapshot of the session's counters.
func (s *Session) Metrics() SessionMetrics {
	m := SessionMetrics{
		Session:         s.sid,
		Group:           s.def.Name,
		Role:            s.role.String(),
		MessagesIn:      s.stats.msgsIn.Load(),
		MessagesOut:     s.stats.msgsOut.Load(),
		BytesIn:         s.stats.bytesIn.Load(),
		BytesOut:        s.stats.bytesOut.Load(),
		RoundsCompleted: s.stats.rounds.Load(),
		RoundsFailed:    s.stats.failed.Load(),
		LastRound:       s.stats.lastRound.Load(),
		WindowsClosed:   s.stats.windows.Load(),
		WindowTime:      time.Duration(s.stats.windowNanos.Load()),
		ChurnJoins:      s.stats.joins.Load(),
		ChurnExpels:     s.stats.expels.Load(),
		RosterVersion:   s.RosterVersion(),
		StateRestores:   s.stats.restores.Load(),
		ReplicaResyncs:  s.stats.resyncs.Load(),
		BlameRounds:     s.stats.blameRounds.Load(),
		Misbehavior:     s.stats.misbehaviorSnapshot(),
	}
	m.PipelineDepth = s.cfg.pipelineDepth
	if m.PipelineDepth < 1 {
		m.PipelineDepth = 1
	}
	if pr, ok := s.engine.(interface{ PerfStats() core.PerfStats }); ok {
		ps := pr.PerfStats()
		m.PadComputeTime = ps.PadCompute
		m.CombineTime = ps.Combine
		m.PadPrefetchHits = ps.PrefetchHits
		m.PadPrefetchMisses = ps.PrefetchMisses
		m.RoundsInFlight = ps.RoundsInFlight
	}
	if opened := s.stats.openedAt.Load(); opened != 0 {
		m.Uptime = time.Since(time.Unix(0, opened))
		if secs := m.Uptime.Seconds(); secs > 0 {
			m.RoundsPerSec = float64(m.RoundsCompleted) / secs
		}
	}
	return m
}

// TransportMetrics returns the session's transport-health snapshot
// when it is attached to the built-in TCP fabric, or nil (SimNet and
// custom transports report nothing). Sessions hosted on one Host share
// its mesh and therefore report the same snapshot.
func (s *Session) TransportMetrics() *TransportMetrics {
	s.mu.Lock()
	link := s.link
	s.mu.Unlock()
	if ms, ok := link.(meshStatser); ok {
		return transportMetrics(ms.meshStats())
	}
	return nil
}
