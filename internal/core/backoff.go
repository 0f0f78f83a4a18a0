package core

import "time"

// backoff is the one retransmission discipline for every timer that
// re-sends protocol messages while peers keep a node waiting: the
// servers' round-phase casts, the roster phase's propose/cert
// rebroadcast, the clients' stale-submission resend, a joiner's join
// request and a held client's roster catch-up probe — every user of a
// castLog. Its value is the role's first-retry delay (serverRetryBase ×
// Policy.WindowMin at servers, submitResendInterval at clients); each
// retry doubles the delay up to backoffCap times that base, and a
// deterministic ±10 % jitter derived from the node identity and attempt
// count decorrelates a fleet of retransmitting nodes instead of letting
// them storm in lockstep after a partition heals. Join requests and
// roster probes wait a fixed joinProbeDelay before their first retry
// and follow the backoff from the second on.
type backoff time.Duration

const (
	// backoffCap bounds the backed-off delay, in multiples of the base.
	backoffCap = 8
	// backoffJitter is the fraction of each delay spread across
	// ±backoffJitter/2.
	backoffJitter = 0.2
)

// delay returns the jittered delay before retransmission number
// attempt (0 = the first retry, scheduled when the message is first
// cast). seed decorrelates nodes and rounds; the same (attempt, seed)
// always yields the same delay, keeping simulations reproducible.
func (b backoff) delay(attempt int, seed uint64) time.Duration {
	d, cap := float64(b), float64(backoffCap*b)
	for i := 0; i < attempt && d < cap; i++ {
		d *= 2
	}
	d = min(d, cap)
	u := splitmix64(seed ^ uint64(attempt)*0x9e3779b97f4a7c15)
	frac := float64(u>>11) / float64(1<<53) // uniform [0,1)
	return time.Duration(d * (1 + backoffJitter*(frac-0.5)))
}

// splitmix64 is the standard 64-bit finalizer used for deterministic
// jitter; it is not cryptographic and does not need to be.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// castLog is the one retransmission record: the signed messages a node
// has sent for some unit of work that peers have not answered yet (a
// round attempt's phase messages, a roster transition's proposal and
// certificate, a client's round submission, a join request, a roster
// probe), when they are next due and how many times they have been
// re-sent. The owner clears it when the work completes or is abandoned.
type castLog struct {
	msgs  []*Message
	dueAt time.Time
	n     int // retransmissions so far (drives the backoff)
}

// cast records one more message of the unit of work and restarts the
// backoff: the whole log is next due after first. A retransmission
// re-sends m itself, so it carries the first send's signature.
func (l *castLog) cast(now time.Time, first time.Duration, m *Message) {
	l.msgs = append(l.msgs, m)
	l.n = 0
	l.dueAt = now.Add(first)
}

// recast returns the messages to send again if the log is due — the
// whole sequence, oldest first — and when it is due next (zero for an
// empty log). Each retransmission backs off per b.
func (l *castLog) recast(now time.Time, b backoff, seed uint64) (due []*Message, next time.Time) {
	if len(l.msgs) == 0 {
		return nil, time.Time{}
	}
	if now.Before(l.dueAt) {
		return nil, l.dueAt
	}
	l.n++
	l.dueAt = now.Add(b.delay(l.n, seed))
	return l.msgs, l.dueAt
}

// clear empties the log, keeping its capacity but none of the messages.
func (l *castLog) clear() {
	clear(l.msgs)
	*l = castLog{msgs: l.msgs[:0]}
}
