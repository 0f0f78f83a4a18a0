package dissent

import (
	"log/slog"

	"dissent/internal/core"
)

// Option tunes one session (Host.OpenSession, Host.OpenJoiner).
type Option func(*sessionConfig)

type sessionConfig struct {
	roster        Roster
	stateStore    *StateStore
	beaconAddr    string
	advertiseAddr string
	onError       func(error)
	logger        *slog.Logger
	msgBuf        int
	pipelineDepth int
	interdict     *core.Interdict
}

// buildConfig folds the options over the defaults. onError and logger
// stay nil here; newMemberSession resolves them together so the default
// error handler logs through the session's own structured logger.
func buildConfig(opts []Option) sessionConfig {
	cfg := sessionConfig{
		msgBuf:        1024,
		pipelineDepth: 1,
	}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithRoster supplies the node-ID → address map a session on a TCP
// Host dials its peers by; required there, ignored on a SimNet Host.
func WithRoster(r Roster) Option {
	return func(c *sessionConfig) { c.roster = r }
}

// WithStateStore backs the session's state — the certified
// roster-update log, the restart snapshot, and the beacon chain — with a durable embedded store (see OpenStateStore).
// A server restarted against a store holding a live session snapshot
// resumes that session instead of waiting out a fresh setup; a client
// gains a durable roster log it can replay to stragglers. The caller
// retains ownership: close the store after the session closes.
func WithStateStore(s *StateStore) Option {
	return func(c *sessionConfig) { c.stateStore = s }
}

// WithBeaconHTTP serves the session's beacon chain over HTTP on addr
// while the session runs: GET /beacon/latest, /beacon/{round},
// /beacon/from/{round}, /beacon/range/{from}, /beacon/info, and — on
// servers, once setup completes — /beacon/schedule, the schedule
// certificate that binds the chain's session genesis.
func WithBeaconHTTP(addr string) Option {
	return func(c *sessionConfig) { c.beaconAddr = addr }
}

// WithAdvertiseAddr sets the dialable address a joiner embeds in its
// join request (see Host.OpenJoiner), so servers can attach it to the
// TCP fabric mid-session. Unnecessary on address-less fabrics like
// SimNet.
func WithAdvertiseAddr(addr string) Option {
	return func(c *sessionConfig) { c.advertiseAddr = addr }
}

// WithErrorHandler observes soft errors — transport read failures,
// messages the engine rejects — that do not stop the session. The
// default handler logs them at Warn through the session's structured
// logger (see WithLogger).
func WithErrorHandler(fn func(error)) Option {
	return func(c *sessionConfig) { c.onError = fn }
}

// WithLogger routes the session's structured logs — engine round
// milestones at Debug, blame verdicts and roster updates at Info, soft
// errors at Warn — through the given logger, with session, group, and
// role attributes attached. Default: the host's logger (see
// WithHostLogger).
func WithLogger(l *slog.Logger) Option {
	return func(c *sessionConfig) { c.logger = l }
}

// WithPipelineDepth sets the round pipeline depth — how many DC-net
// rounds the session keeps in flight (default 1, the serial engine). At
// depth 2 servers open round r+1's submission window the moment round
// r's collection closes, running r's pad/combine/certify concurrently
// with r+1's collection, and clients submit into r+1 while awaiting
// r's output; when certification is the bottleneck this roughly
// doubles round throughput. Every member of a group must run the same
// depth. Values below 1 are ignored.
func WithPipelineDepth(d int) Option {
	return func(c *sessionConfig) {
		if d > 0 {
			c.pipelineDepth = d
		}
	}
}

// WithInterdict installs a scripted byzantine behavior hook (see
// Interdict and the internal adversary catalog behind the byzantine
// harness scenarios): the session runs the honest protocol and the
// interdict tampers with what it computes or sends. Robustness
// harnesses only — production sessions must leave this unset.
func WithInterdict(i *Interdict) Option {
	return func(c *sessionConfig) { c.interdict = i }
}

// WithMessageBuffer sets the Messages() channel capacity (default
// 1024). When the application does not drain the channel, the oldest
// undelivered outputs are dropped — the protocol never blocks on a
// slow consumer.
func WithMessageBuffer(n int) Option {
	return func(c *sessionConfig) {
		if n > 0 {
			c.msgBuf = n
		}
	}
}
