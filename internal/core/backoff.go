package core

import "time"

// RetryPolicy is the unified retransmission discipline for every timer
// that re-sends protocol messages while peers keep a node waiting: the
// servers' round-phase casts, the roster phase's propose/cert
// rebroadcast, the clients' stale-submission resend, a joiner's join
// request and a held client's roster catch-up probe — every user of a
// castLog. Delays grow exponentially from Base by Factor up to Cap,
// with a deterministic ±Jitter/2 fraction derived from the node
// identity and attempt count so a fleet of retransmitting nodes
// decorrelates instead of storming in lockstep after a partition heals.
// The zero value takes defaults derived from the engine's natural
// period (8×Policy.WindowMin at servers, the legacy 2 s submit interval
// at clients), so existing deployments keep their first-retry latency
// and gain only the backoff. Join requests and roster probes wait a
// fixed joinProbeDelay before their first retry and follow the policy
// from the second on.
type RetryPolicy struct {
	// Base is the first retransmission delay. Zero derives the
	// engine's legacy fixed period.
	Base time.Duration
	// Cap bounds the backed-off delay. Zero derives 8×Base.
	Cap time.Duration
	// Factor multiplies the delay per retry. Zero means 2; values
	// below 1 clamp to 1 (constant delay).
	Factor float64
	// Jitter is the fraction of each delay spread uniformly (and
	// deterministically, seeded by node identity) across ±Jitter/2.
	// Zero means 0.2; negative disables jitter.
	Jitter float64
}

// withDefaults resolves zero fields against the engine's legacy fixed
// period and normalizes out-of-range values.
func (p RetryPolicy) withDefaults(base time.Duration) RetryPolicy {
	if p.Base <= 0 {
		p.Base = base
	}
	if p.Base <= 0 {
		p.Base = time.Second
	}
	if p.Cap <= 0 {
		p.Cap = 8 * p.Base
	}
	if p.Cap < p.Base {
		p.Cap = p.Base
	}
	if p.Factor == 0 {
		p.Factor = 2
	}
	if p.Factor < 1 {
		p.Factor = 1
	}
	switch {
	case p.Jitter == 0:
		p.Jitter = 0.2
	case p.Jitter < 0:
		p.Jitter = 0
	case p.Jitter > 1:
		p.Jitter = 1
	}
	return p
}

// delay returns the jittered delay before retransmission number
// attempt (0 = the first retry, scheduled when the message is first
// cast). seed decorrelates nodes and rounds; the same (attempt, seed)
// always yields the same delay, keeping simulations reproducible.
func (p RetryPolicy) delay(attempt int, seed uint64) time.Duration {
	d := float64(p.Base)
	cap := float64(p.Cap)
	for i := 0; i < attempt && d < cap; i++ {
		d *= p.Factor
	}
	if d > cap {
		d = cap
	}
	if p.Jitter > 0 {
		u := splitmix64(seed ^ uint64(attempt)*0x9e3779b97f4a7c15)
		frac := float64(u>>11) / float64(1<<53) // uniform [0,1)
		d *= 1 + p.Jitter*(frac-0.5)
	}
	return time.Duration(d)
}

// splitmix64 is the standard 64-bit finalizer used for deterministic
// jitter; it is not cryptographic and does not need to be.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// castMsg is one message recorded for retransmission: what to sign and
// send again.
type castMsg struct {
	t     MsgType
	round uint64
	body  []byte
}

// castLog is the one retransmission record: the messages a node has
// sent for some unit of work that peers have not answered yet (a round
// attempt's phase messages, a roster transition's proposal and
// certificate, a client's round submission, a join request, a roster
// probe), when they are next due and how many times they have been
// re-sent. The owner clears it when the work completes or is abandoned.
type castLog struct {
	msgs  []castMsg
	dueAt time.Time
	n     int // retransmissions so far (drives the backoff)
}

// cast records one more message of the unit of work and restarts the
// backoff: the whole log is next due after first.
func (l *castLog) cast(now time.Time, first time.Duration, t MsgType, round uint64, body []byte) {
	l.msgs = append(l.msgs, castMsg{t: t, round: round, body: body})
	l.n = 0
	l.dueAt = now.Add(first)
}

// recast returns the messages to send again if the log is due — the
// whole sequence, oldest first — and when it is due next (zero for an
// empty log). Each retransmission backs off per p.
func (l *castLog) recast(now time.Time, p RetryPolicy, seed uint64) (due []castMsg, next time.Time) {
	if len(l.msgs) == 0 {
		return nil, time.Time{}
	}
	if now.Before(l.dueAt) {
		return nil, l.dueAt
	}
	l.n++
	l.dueAt = now.Add(p.delay(l.n, seed))
	return l.msgs, l.dueAt
}

// clear empties the log, keeping its capacity but none of the messages.
func (l *castLog) clear() {
	clear(l.msgs)
	*l = castLog{msgs: l.msgs[:0]}
}
