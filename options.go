package dissent

import (
	"log/slog"

	"dissent/internal/core"
)

// Option tunes Node construction.
type Option func(*nodeConfig)

type nodeConfig struct {
	transport     Transport
	listenAddr    string
	listenAddrSet bool // distinguishes an explicit WithListenAddr from the ":0" default
	roster        Roster
	stateStore    *StateStore
	beaconAddr    string
	advertiseAddr string
	onError       func(error)
	logger        *slog.Logger
	msgBuf        int
	pipelineDepth int
	retry         *core.RetryPolicy
	interdict     *core.Interdict
}

// buildConfig folds the options over the defaults. onError and logger
// stay nil here; newSessionShell resolves them together so the default
// error handler logs through the session's own structured logger.
func buildConfig(opts []Option) nodeConfig {
	cfg := nodeConfig{
		listenAddr:    ":0",
		msgBuf:        1024,
		pipelineDepth: 1,
	}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithTransport selects the message fabric the node runs over (a
// SimNet, a custom implementation, ...). When omitted, the node uses
// TCP with the configured listen address and roster.
func WithTransport(t Transport) Option {
	return func(c *nodeConfig) { c.transport = t }
}

// WithListenAddr sets the TCP listen address for the default transport
// (ignored when WithTransport is given; rejected by Host.OpenSession,
// whose sessions share the host's listener). Default ":0".
func WithListenAddr(addr string) Option {
	return func(c *nodeConfig) { c.listenAddr, c.listenAddrSet = addr, true }
}

// WithRoster supplies the node-ID → address map for the default TCP
// transport (ignored when WithTransport is given).
func WithRoster(r Roster) Option {
	return func(c *nodeConfig) { c.roster = r }
}

// WithStateStore backs the node's session state — the certified
// roster-update log, blame transcripts, the restart snapshot, and the
// beacon chain — with a durable embedded store (see OpenStateStore).
// A server restarted against a store holding a live session snapshot
// resumes that session instead of waiting out a fresh setup; a client
// gains a durable roster log it can replay to stragglers. The caller
// retains ownership: close the store after Run returns.
func WithStateStore(s *StateStore) Option {
	return func(c *nodeConfig) { c.stateStore = s }
}

// WithBeaconHTTP serves the node's beacon chain over HTTP on addr
// while the node runs: GET /beacon/latest, /beacon/{round},
// /beacon/from/{round}, /beacon/range/{from}, /beacon/info, and — on
// servers, once setup completes — /beacon/schedule, the schedule
// certificate that binds the chain's session genesis.
func WithBeaconHTTP(addr string) Option {
	return func(c *nodeConfig) { c.beaconAddr = addr }
}

// WithAdvertiseAddr sets the dialable address a joiner embeds in its
// join request (see NewJoiner), so servers can attach it to the TCP
// fabric mid-session. Unnecessary on address-less fabrics like SimNet.
func WithAdvertiseAddr(addr string) Option {
	return func(c *nodeConfig) { c.advertiseAddr = addr }
}

// WithErrorHandler observes soft errors — transport read failures,
// messages the engine rejects — that do not stop the node. The default
// handler logs them at Warn through the session's structured logger
// (see WithLogger).
func WithErrorHandler(fn func(error)) Option {
	return func(c *nodeConfig) { c.onError = fn }
}

// WithLogger routes the session's structured logs — engine round
// milestones at Debug, blame verdicts and roster updates at Info, soft
// errors at Warn — through the given logger, with session, group, and
// role attributes attached. Default slog.Default(). Host sessions
// inherit the host's logger unless overridden.
func WithLogger(l *slog.Logger) Option {
	return func(c *nodeConfig) { c.logger = l }
}

// WithPipelineDepth sets the round pipeline depth — how many DC-net
// rounds the node keeps in flight (default 1, the serial engine). At
// depth 2 servers open round r+1's submission window the moment round
// r's collection closes, running r's pad/combine/certify concurrently
// with r+1's collection, and clients submit into r+1 while awaiting
// r's output; when certification is the bottleneck this roughly
// doubles round throughput. Every member of a group must run the same
// depth. Values below 1 are ignored.
func WithPipelineDepth(d int) Option {
	return func(c *nodeConfig) {
		if d > 0 {
			c.pipelineDepth = d
		}
	}
}

// WithRetryPolicy overrides the engine's retransmission backoff — the
// capped exponential-with-jitter discipline behind server round-phase
// rebroadcasts, roster-phase rebroadcasts, client stale-submission
// resends, join-request retries and roster catch-up probes (the last
// two after a fixed 1 s first delay). Zero fields keep their defaults (first retry at the
// engine's legacy period, cap 8× that, factor 2, jitter 0.2). All
// members may run different policies; only liveness, not correctness,
// depends on them.
func WithRetryPolicy(p RetryPolicy) Option {
	return func(c *nodeConfig) { c.retry = &p }
}

// WithInterdict installs a scripted byzantine behavior hook (see
// Interdict and the internal adversary catalog behind the byzantine
// harness scenarios): the node runs the honest protocol and the
// interdict tampers with what it computes or sends. Robustness
// harnesses only — production nodes must leave this unset.
func WithInterdict(i *Interdict) Option {
	return func(c *nodeConfig) { c.interdict = i }
}

// WithMessageBuffer sets the Messages() channel capacity (default
// 1024). When the application does not drain the channel, the oldest
// undelivered outputs are dropped — the protocol never blocks on a
// slow consumer.
func WithMessageBuffer(n int) Option {
	return func(c *nodeConfig) {
		if n > 0 {
			c.msgBuf = n
		}
	}
}
