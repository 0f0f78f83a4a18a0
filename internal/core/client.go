package core

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"dissent/internal/crypto"
	"dissent/internal/dcnet"
	"dissent/internal/group"
	"dissent/internal/obs"
	"dissent/internal/shuffle"
	"dissent/internal/wire"
)

// witnessInfo records a detected disruption pending accusation: the
// round, our slot, and a slot-relative bit we sent as 0 that came out 1.
type witnessInfo struct {
	round uint64
	bit   int
}

// clientRound records one submitted, not-yet-certified round at a
// client. With pipelining up to depth coexist: the client submits round
// r+1 while still awaiting round r's certified output.
type clientRound struct {
	r      uint64
	start  time.Time // submit time (trace span origin)
	padDur time.Duration
	// prefetchHit reports whether the ciphertext used the streams
	// prepared in the previous idle window (nextStreams).
	prefetchHit bool

	vec      []byte // message vector submitted (resend on failure); pooled
	sentSlot []byte // our slot region as sent (all-zero if silent, nil if closed); aliases sentBuf
	sentBuf  []byte // reusable backing for sentSlot
	// casts retains the submission so Tick can resend it while the round
	// stays uncertified. A resend is idempotent at the server (duplicate
	// submissions drop), and for a round that retired while we were
	// unreachable it states our position, which the server answers with
	// what we lack (Server.catchUp).
	casts castLog
}

// Client is the Dissent client engine (Algorithm 1). Applications
// queue payloads with Send; the engine requests a slot, transmits, and
// surfaces every slot's decoded payload as Deliveries.
type Client struct {
	node
	idx      int
	upstream group.NodeID

	serverSeeds [][]byte // pairwise DC-net seeds, by server index

	pseudonym *crypto.KeyPair
	mySlot    int
	ready     bool

	// round is the next round to submit; the replica's head, the next
	// round output to process, trails it by the rounds in flight.
	round uint64
	// inflight holds the submitted-but-uncertified rounds, oldest first
	// (at most the replica's depth); spare recycles retired records so the
	// steady-state submit path stays allocation-free.
	inflight      []*clientRound
	spare         []*clientRound
	outbox        [][]byte
	reqPending    bool // we have an unserved slot request in flight
	awaitingBlame bool
	// rosterDone is the highest epoch-boundary round whose roster update
	// has been applied: submission into that boundary may proceed. The
	// boundary wait is edge-triggered off this watermark (the server
	// analogue is rosterDue).
	rosterDone uint64

	// Data-plane hot path: nextStreams holds the (pair, round) streams
	// prepared during the previous round's idle window — pairwise seeds
	// are round-independent, so round r+1's AES key schedules can be
	// built the moment round r is submitted, leaving the submit path
	// itself allocation-free. bufs recycles message vectors and
	// ciphertext buffers, and submit is the one ClientSubmit payload
	// each round's ciphertext is encoded through (a payload handed to
	// wire.Encode escapes, so a fresh one would cost an allocation).
	nextStreams *dcnet.PadStreams
	bufs        bufPool
	submit      ClientSubmit

	// Membership churn state (see roster.go).
	expelled       bool   // expelled by verdict or certified removal; not submitting
	joining        bool   // prospective member awaiting admission
	joinAddr       string // advertised transport address for the join request
	awaitingRoster bool   // epoch boundary: hold submission for MsgRosterUpdate
	// applyDigest is the schedule digest captured when the current
	// roster version was applied (or at schedule install for the initial
	// version); nil when no apply-point digest is known (mid-stream
	// welcome or snapshot re-sync). It rides the catch-up probe so the
	// upstream server can detect a silently diverged replica and force a
	// certified snapshot re-sync.
	applyDigest []byte

	witness          *witnessInfo
	accusedInSession int32
	// blameAt is when the open accusation shuffle's MsgBlameStart
	// arrived (zero when none is open), for the next round span.
	blameAt time.Time

	// ctl is the cast log of the one control message the client may be
	// repeating outside a round: a joiner's join request, or a held
	// client's roster catch-up probe.
	ctl castLog
}

// NewClient builds a client engine for the given identity key.
func NewClient(def *group.Definition, kp *crypto.KeyPair, opts Options) (*Client, error) {
	n, err := newNode(def, kp, opts, submitResendInterval)
	if err != nil {
		return nil, err
	}
	c := &Client{node: n, mySlot: -1}
	c.idx = def.ClientIndex(c.id)
	if c.idx < 0 {
		return nil, errors.New("core: key is not a client in this group")
	}
	c.upstream = def.Servers[def.UpstreamServer(c.idx)].ID
	if c.serverSeeds, err = c.deriveServerSeeds(def); err != nil {
		return nil, err
	}
	return c, nil
}

// deriveServerSeeds returns the pairwise DC-net seed this client shares
// with each server of def.
func (c *Client) deriveServerSeeds(def *group.Definition) ([][]byte, error) {
	seeds := make([][]byte, len(def.Servers))
	for j, srv := range def.Servers {
		seed, err := c.pairSeed(srv.PubKey)
		if err != nil {
			return nil, fmt.Errorf("core: server %d seed: %w", j, err)
		}
		seeds[j] = seed
	}
	return seeds, nil
}

// takeRound returns a reset round record, reusing a retired one.
func (c *Client) takeRound() *clientRound {
	if n := len(c.spare); n > 0 {
		cr := c.spare[n-1]
		c.spare = c.spare[:n-1]
		*cr = clientRound{sentBuf: cr.sentBuf, casts: cr.casts}
		return cr
	}
	return &clientRound{}
}

// retireRound recycles a round record's pooled vector and returns the
// record to the spare list.
func (c *Client) retireRound(cr *clientRound) {
	c.bufs.put(cr.vec)
	cr.vec, cr.sentSlot = nil, nil
	cr.casts.clear()
	c.spare = append(c.spare, cr)
}

// reclaimRound retires a round whose vector can no longer be submitted,
// requeueing the payload its slot carried.
func (c *Client) reclaimRound(cr *clientRound) {
	c.requeue(cr)
	c.retireRound(cr)
}

// requeue returns the payload a round's slot carried to the head of the
// outbox, so the data still rides a later round.
func (c *Client) requeue(cr *clientRound) {
	if cr.sentSlot != nil {
		if payload, idle, err := dcnet.DecodeSlot(cr.sentSlot); err == nil && !idle && len(payload.Data) > 0 {
			c.outbox = slices.Insert(c.outbox, 0, bytes.Clone(payload.Data))
		}
	}
}

// Index returns the client's index in the group definition.
func (c *Client) Index() int { return c.idx }

// Slot returns the client's anonymous slot index, or -1 before setup.
func (c *Client) Slot() int { return c.mySlot }

// Ready reports whether the schedule is established.
func (c *Client) Ready() bool { return c.ready }

// Round returns the next round the client will submit for.
func (c *Client) Round() uint64 { return c.round }

// Send queues an application payload for anonymous transmission. Large
// payloads are fragmented across rounds up to the slot-length cap;
// reassembly is the application's concern.
func (c *Client) Send(data []byte) {
	c.outbox = append(c.outbox, append([]byte(nil), data...))
}

// Pending returns the number of queued outbound payloads.
func (c *Client) Pending() int { return len(c.outbox) }

// Start generates the pseudonym key and submits it for scheduling —
// or, for a joining engine, sends the join request instead.
func (c *Client) Start(now time.Time) (*Output, error) {
	if c.joining {
		return c.startJoin(now)
	}
	pseu, err := crypto.GenerateKeyPair(c.keyGrp, c.rand)
	if err != nil {
		return nil, err
	}
	c.pseudonym = pseu
	in, err := shuffle.PrepareInput(c.keyGrp, c.def.ServerPubKeys(), []crypto.Element{pseu.Public}, c.rand)
	if err != nil {
		return nil, err
	}
	body := wire.Encode(&ShuffleSubmit{CT: crypto.EncodeCiphertext(c.keyGrp, in[0])})
	m, err := c.sign(MsgPseudonymSubmit, 0, body)
	if err != nil {
		return nil, err
	}
	out := &Output{Send: []Envelope{{To: c.upstream, Msg: m}}}
	c.applyInterdict(out)
	return out, nil
}

// Check runs the ingress check on m. It reads only the published
// definition, so any goroutine may call it while the engine steps and
// hand the result to HandleChecked.
func (c *Client) Check(m *Message) Checked { return c.ingress(m, clientSenders) }

// Handle checks an incoming message at ingress and processes it:
// HandleChecked of Check(m).
func (c *Client) Handle(now time.Time, m *Message) (*Output, error) {
	return c.HandleChecked(now, c.Check(m))
}

// HandleChecked processes a checked message. A message that failed its
// check is one protocol violation, never an error.
func (c *Client) HandleChecked(now time.Time, chk Checked) (*Output, error) {
	if _, err := c.admit(chk, clientSenders); err != nil {
		return c.violation(err), nil
	}
	out, err := c.dispatch(now, chk.Msg)
	if err != nil {
		return out, err
	}
	c.applyInterdict(out)
	return out, nil
}

// clientSenders is the client's sender-role table: a client takes
// messages from servers only. A round output is authenticated by its
// round certificate, not its envelope.
var clientSenders = map[MsgType]sender{
	MsgSchedule:        fromServer,
	MsgOutput:          fromServer | certified,
	MsgBlameStart:      fromServer,
	MsgBlameDone:       fromServer,
	MsgRebuttalRequest: fromServer,
	MsgRosterUpdate:    fromServer,
	MsgSnapshot:        fromServer,
}

func (c *Client) dispatch(now time.Time, m *Message) (*Output, error) {
	switch m.Type {
	case MsgSchedule:
		return c.onSchedule(now, m)
	case MsgOutput:
		return c.onOutput(now, m)
	case MsgBlameStart:
		return c.onBlameStart(now, m)
	case MsgBlameDone:
		return c.onBlameDone(now, m)
	case MsgRebuttalRequest:
		return c.onRebuttalRequest(now, m)
	case MsgRosterUpdate:
		return c.onRosterUpdate(now, m)
	case MsgSnapshot:
		return c.onSnapshot(now, m)
	default:
		return nil, fmt.Errorf("core: no client handler for %s", m.Type)
	}
}

// submitResendInterval bounds how long a submitted round may sit
// uncertified before the client re-sends it. Healthy rounds certify
// well inside the interval, so the steady-state cost is one no-op
// timer per interval; for a round the group retired while the client
// was unreachable the resend states the client's position, and the
// server's catch-up answer brings it back to the live round instead of
// leaving it wedged.
const submitResendInterval = 2 * time.Second

// joinProbeDelay is how long a join request or a roster catch-up probe
// waits before its first retransmission; later ones follow the
// client's backoff. The single join frame may be lost, or the operator
// may Admit the key only after the joiner started; a held client probes
// when the certified update it waits for does not arrive.
const joinProbeDelay = time.Second

// Tick re-sends whatever the client is waiting on an answer to, once its
// cast log is due: a joiner's join request; for a client held at an
// epoch boundary the probe asking its upstream server to replay missed
// certified updates (the catch-up for a lost MsgRosterUpdate frame);
// otherwise the oldest uncertified round's submission (lost frame, or a
// round certified while our upstream server was down).
func (c *Client) Tick(now time.Time) (*Output, error) {
	var l *castLog
	seed := c.retrySeed
	switch {
	case c.joining && !c.ready && c.pseudonym != nil, c.ready && c.awaitingRoster:
		l = &c.ctl
	case c.ready && !c.awaitingBlame && !c.expelled && len(c.inflight) > 0:
		l = &c.inflight[0].casts
		seed ^= c.inflight[0].r
	default:
		return &Output{}, nil
	}
	due, next := l.recast(now, c.retry, seed)
	out := &Output{Timer: next}
	if err := c.sendUpstream(due, out); err != nil {
		return nil, err
	}
	c.applyInterdict(out)
	return out, nil
}

// sendUpstream signs recorded messages and addresses them to the
// upstream server.
func (c *Client) sendUpstream(msgs []castMsg, out *Output) error {
	for _, cm := range msgs {
		m, err := c.sign(cm.t, cm.round, cm.body)
		if err != nil {
			return err
		}
		out.Send = append(out.Send, Envelope{To: c.upstream, Msg: m})
	}
	return nil
}

// castCtl makes one message the client's repeating control message.
func (c *Client) castCtl(now time.Time, t MsgType, round uint64, body []byte) {
	c.ctl.clear()
	c.ctl.cast(now, joinProbeDelay, t, round, body)
}

// awaitRoster holds submission at an epoch boundary until the certified
// MsgRosterUpdate arrives, and arms the catch-up probe: not sent now —
// the update normally arrives unasked — but due after joinProbeDelay if
// it does not. The probe carries our roster version and post-apply
// schedule digest, neither of which can change while we wait.
func (c *Client) awaitRoster(now time.Time, out *Output) {
	c.awaitingRoster = true
	c.castCtl(now, MsgJoinRequest, c.round,
		wire.Encode(&JoinRequest{Version: c.def.Version, SchedDigest: c.applyDigest}))
	out.merge(&Output{Timer: c.ctl.dueAt})
}

func (c *Client) onSchedule(now time.Time, m *Message) (*Output, error) {
	if c.ready {
		return &Output{}, nil
	}
	p, err := decode[Schedule](m.Body)
	if err != nil {
		return c.violation(err), nil
	}
	if _, err := VerifyScheduleCert(c.def, p.Keys, p.Sigs); err != nil {
		return c.violation(err), nil
	}
	myKey := c.keyGrp.Encode(c.pseudonym.Public)
	c.mySlot = -1
	for i, k := range p.Keys {
		if bytes.Equal(k, myKey) {
			c.mySlot = i
			break
		}
	}
	if c.mySlot < 0 {
		return nil, errors.New("core: our pseudonym key is missing from the schedule")
	}
	if err := c.newSchedule(len(p.Keys), p.Keys, p.Sigs); err != nil {
		return nil, err
	}
	c.ready = true
	dig := c.sched.Digest()
	c.applyDigest = dig[:]
	out := &Output{Events: []Event{{Kind: EventScheduleReady, Detail: fmt.Sprintf("slot %d of %d", c.mySlot, len(p.Keys))}}}
	return out.then(c.submitRound(now))
}

// composeVector lays out one round's message vector (Algorithm 1
// step 2) into cr and records what we transmitted for disruption
// detection. The layout is the schedule's for round cr.r: under
// pipelining older rounds' directives are still queued when this round
// composes, and Layout bounds its view to exactly the layout the servers
// will decode this round at. The vector comes from the buffer pool.
//
// A slot no longer than Policy.DefaultOpenLen stays open when the outbox
// empties: the draining round announces its own length again, and later
// rounds with nothing to send leave the region all-zero — silent — until
// the next record rides the next composed round without a request round
// first. The schedule keeps the eight most recently active silent slots
// open and closes the one silent longest beyond them, so only a record
// whose slot was closed that way pays the request round; a slot grown
// past DefaultOpenLen for a backlog closes as soon as the backlog
// drains. Either way the region we record for disruption detection is
// exactly the one we sent.
func (c *Client) composeVector(cr *clientRound) ([]byte, error) {
	l := c.sched.Layout(cr.r)
	vec := c.bufs.get(l.Len)
	off, n := l.SlotRange(c.mySlot)
	cr.sentSlot = nil
	if n == 0 {
		if len(c.outbox) > 0 || c.witness != nil {
			bit := true
			if c.reqPending {
				// §3.8: randomize retries so a disruptor cannot keep
				// cancelling our request bit.
				bit = randBit(c.rand)
			}
			c.sched.SetReqBit(vec, c.mySlot, bit)
			c.reqPending = true
		}
		return vec, nil
	}
	region := vec[off : off+n]
	// With nothing to send the region stays as the pool zeroed it: silent.
	if len(c.outbox) > 0 || c.witness != nil {
		if err := c.encodeSlot(region); err != nil {
			return nil, err
		}
	}
	cr.sentBuf = append(cr.sentBuf[:0], region...)
	cr.sentSlot = cr.sentBuf
	return vec, nil
}

// encodeSlot fills our open slot's region with as much of the outbox as
// fits, the length to announce for the next round, and — while we hold
// a witness — a shuffle request.
func (c *Client) encodeSlot(region []byte) error {
	slotLen := len(region)
	payload := dcnet.SlotPayload{}
	capacity := dcnet.SlotCapacity(slotLen)
	// Drain as many queued payloads as fit: the slot is a byte stream,
	// so consecutive payloads concatenate (framing is the
	// application's concern, as with any SOCKS byte tunnel).
	var data []byte
	for len(c.outbox) > 0 && len(data) < capacity {
		msg := c.outbox[0]
		take := capacity - len(data)
		if len(msg) <= take {
			data = append(data, msg...)
			c.outbox = c.outbox[1:]
		} else {
			data = append(data, msg[:take]...)
			c.outbox[0] = msg[take:]
		}
	}
	payload.Data = data
	remaining := 0
	for _, msg := range c.outbox {
		remaining += len(msg)
	}
	switch {
	case remaining > 0:
		next := dcnet.SlotLenFor(remaining)
		if next > c.def.Policy.MaxSlotLen {
			next = c.def.Policy.MaxSlotLen
		}
		payload.NextLen = next
	case c.witness != nil || slotLen <= c.def.Policy.DefaultOpenLen:
		// Keep the slot open: to carry shuffle requests, or to stay
		// silent until the next record — at DefaultOpenLen at least, so a
		// tail fragment's short slot does not fragment the next record.
		payload.NextLen = max(slotLen, c.def.Policy.DefaultOpenLen)
	default:
		payload.NextLen = 0
	}
	if c.witness != nil {
		payload.ShuffleReq = randNonzeroByte(c.rand)
	}
	return dcnet.EncodeSlot(region, payload, c.rand)
}

// submitRound fills the pipeline: it submits rounds until depth are in
// flight or a hold (blame, roster wait, expulsion, epoch boundary)
// stops it. At depth 1 this is exactly the serial one-round submit.
func (c *Client) submitRound(now time.Time) (*Output, error) {
	out := &Output{}
	for len(c.inflight) < c.depth {
		if c.awaitingBlame || c.awaitingRoster || c.expelled {
			break
		}
		if c.epochBoundary(c.round) && c.round > c.rosterDone {
			// Epoch boundary ahead: servers drain the pipeline and run the
			// roster phase before this round; hold further submissions
			// until the certified MsgRosterUpdate. The timer probes for a
			// lost update via the catch-up path. Only flip to waiting once
			// the earlier rounds have drained on our side too, so their
			// outputs are processed under the pre-rotation schedule.
			if len(c.inflight) == 0 {
				c.awaitRoster(now, out)
			}
			break
		}
		cr := c.takeRound()
		cr.r = c.round
		vec, err := c.composeVector(cr)
		if err != nil {
			return nil, err
		}
		cr.vec = vec
		sub, err := c.submitVector(now, cr, vec)
		if err != nil {
			return nil, err
		}
		c.inflight = append(c.inflight, cr)
		c.round++
		out.merge(sub)
	}
	return out, nil
}

func (c *Client) submitVector(now time.Time, cr *clientRound, vec []byte) (*Output, error) {
	// Adversary injection (slot jamming): mutate the cleartext vector
	// before the pads go on and the submission is signed, so the
	// tampering rides a perfectly well-formed, authentic submission.
	if c.interdict != nil && c.interdict.Vector != nil {
		c.interdict.Vector(VectorInfo{
			Round:     cr.r,
			OwnSlot:   c.mySlot,
			NumSlots:  c.sched.NumSlots(),
			SlotRange: c.sched.Layout(cr.r).SlotRange,
		}, vec)
	}
	// Build the ciphertext into a pooled buffer, using the streams
	// prepared during the previous idle window when they match this
	// round (pairwise seeds never change with the roster, so a round
	// match is the only freshness condition). Encode copies the bytes,
	// so the buffer recycles immediately.
	ct := c.bufs.get(len(vec))
	ps := c.nextStreams
	c.nextStreams = nil
	t0 := time.Now()
	cr.prefetchHit = ps != nil && ps.Round() == cr.r
	if cr.prefetchHit {
		ps.CiphertextInto(ct, vec)
	} else {
		c.pad.ClientCiphertextInto(ct, c.serverSeeds, cr.r, vec)
	}
	cr.padDur = time.Since(t0)
	cr.start = now
	c.submit.CT = ct
	body := wire.Encode(&c.submit)
	c.submit.CT = nil
	c.bufs.put(ct)
	m, err := c.sign(MsgClientSubmit, cr.r, body)
	if err != nil {
		return nil, err
	}
	cr.casts.clear()
	cr.casts.cast(now, c.retry.delay(0, c.retrySeed^cr.r), MsgClientSubmit, cr.r, body)
	// Idle-window prefetch: build the next round's streams while the
	// network is the bottleneck.
	c.nextStreams = c.pad.Prepare(c.serverSeeds, cr.r+1)
	// The timer sustains the stale-submission resend loop (Tick): if the
	// round goes uncertified past the backoff delay — lost frame, or a
	// round the group certified while our upstream was down — the resend
	// either drops as a duplicate or pulls back the retained certified
	// output.
	return &Output{
		Send:  []Envelope{{To: c.upstream, Msg: m}},
		Timer: cr.casts.dueAt,
	}, nil
}

// RoundsInFlight returns the client's submitted-but-uncertified round
// count (at most the pipeline depth).
func (c *Client) RoundsInFlight() int { return len(c.inflight) }

// emitRoundTrace puts the client's view of a certified round into out
// as a span record: submit-to-output latency plus the ciphertext-build
// time. cr may be nil when the output matched no in-flight record (e.g.
// an expelled client following outputs without submitting).
func (c *Client) emitRoundTrace(now time.Time, round uint64, participation int, failed bool, cr *clientRound, out *Output) {
	t := obs.RoundTrace{
		Round:         round,
		Participation: participation,
		Failed:        failed,
	}
	if cr != nil {
		t.Start = cr.start
		t.Pad = cr.padDur
		t.PrefetchHit = cr.prefetchHit
		if !cr.start.IsZero() {
			t.Total = now.Sub(cr.start)
		}
	}
	c.emitSpan(t, out)
}

// slotClosedAhead reports whether our slot is closed in round head+λ's
// layout, the first that holds every queued directive.
func (c *Client) slotClosedAhead() bool {
	return c.sched.Layout(c.head() + uint64(c.depth-1)).Lens[c.mySlot] == 0
}

func (c *Client) onOutput(now time.Time, m *Message) (*Output, error) {
	if !c.ready || m.Round != c.head() {
		return &Output{}, nil
	}
	p, bEntry, err := c.verifyOutput(m.Round, m.Body)
	if err != nil {
		return c.violation(err), nil
	}
	// Read what retirement moves past: our slot's region in this round's
	// layout (for disruption detection), and whether the slot is closed in
	// the first round's layout that holds every queued directive, head+λ —
	// the request-bit state concerns rounds we have yet to compose.
	off, n := c.sched.Layout(m.Round).SlotRange(c.mySlot)
	wasClosed := c.slotClosedAhead()
	res, err := c.retire(m.Round, p, bEntry)
	if errors.Is(err, errLayout) {
		return nil, err
	}
	if err != nil {
		// The beacon store refused the entry and nothing moved: the round
		// is still in flight, and its resend (Tick) draws this output
		// again from the servers' retained set.
		return c.violation(err), nil
	}
	// The oldest in-flight record is this round's, unless we were not
	// submitting (expelled, or following outputs after a join).
	var cr *clientRound
	if len(c.inflight) > 0 && c.inflight[0].r == m.Round {
		cr = c.inflight[0]
		copy(c.inflight, c.inflight[1:])
		c.inflight[len(c.inflight)-1] = nil
		c.inflight = c.inflight[:len(c.inflight)-1]
	}
	if c.round < c.head() {
		// Non-submitting clients track the round counter from outputs so
		// a later re-admission resumes at the right round.
		c.round = c.head()
	}
	out := &Output{}
	c.emitRoundTrace(now, m.Round, int(p.Count), p.Failed, cr, out)
	if c.epochBoundary(c.round) && c.round > c.rosterDone && len(c.inflight) == 0 {
		// Epoch boundary: servers run the roster phase before this round.
		c.awaitRoster(now, out)
	}
	if p.Failed {
		out.Events = append(out.Events, Event{Kind: EventRoundFailed, Round: m.Round,
			Detail: fmt.Sprintf("participation %d", p.Count)})
		if cr == nil || c.expelled {
			if cr != nil {
				c.retireRound(cr)
			}
			return out, nil
		}
		if c.depth == 1 && !c.awaitingRoster {
			// Hard-timeout round: ciphertexts discarded; resubmit the same
			// vector under the next round number (§3.7).
			cr.r = c.round
			sub, err := c.submitVector(now, cr, cr.vec)
			if err != nil {
				return nil, err
			}
			c.inflight = append(c.inflight, cr)
			c.round++
			out.merge(sub)
			return out, nil
		}
		// Depth ≥ 2, or an epoch boundary ahead: the identical vector may
		// not match a later layout (younger rounds composed assuming this
		// stage existed; the boundary's roster update re-derives the
		// permutation), so recover the payload bytes and requeue them at
		// the head of the outbox for the next composition instead.
		c.reclaimRound(cr)
		if c.awaitingRoster {
			return out, nil
		}
		return out.then(c.submitRound(now))
	}

	// Disruption detection (§3.9): compare our slot region, at the layout
	// this round was composed and decoded at, against the certified output.
	if cr != nil && cr.sentSlot != nil {
		got := p.Cleartext[off : off+n]
		if !bytes.Equal(got, cr.sentSlot) {
			if bit := findWitnessBit(cr.sentSlot, got); bit >= 0 {
				if c.witness == nil {
					out.Events = append(out.Events, Event{Kind: EventDisruptionDetected, Round: m.Round,
						Detail: fmt.Sprintf("slot %d bit %d", c.mySlot, bit)})
				}
				// Always witness the NEWEST disrupted round. Servers evict
				// trace history after RetainRounds, so under a continuous
				// disruptor an accusation pinned to the first disruption
				// goes stale: every shuffle squashes it, every verdict is
				// inconclusive, and the blame path livelocks. Refreshing
				// keeps the accused round within the servers' retention
				// window however long the accusation takes to be carried.
				c.witness = &witnessInfo{round: m.Round, bit: bit}
			}
			// Whatever the cause — a disruptor's flips, or a round that
			// certified on an attempt excluding us (our upstream server
			// crashed with our ciphertext) — our payload did not reach the
			// group intact. Requeue it instead of silently losing it.
			c.requeue(cr)
		}
	}
	if wasClosed && !c.slotClosedAhead() {
		c.reqPending = false
	}
	c.reportRetired(m.Round, res, out)
	if cr != nil {
		c.retireRound(cr)
	}
	if res.ShuffleRequested {
		// Servers will open an accusation shuffle before the next
		// round; hold our submission until MsgBlameDone.
		c.awaitingBlame = true
	}
	if c.awaitingBlame || c.awaitingRoster || c.expelled {
		return out, nil
	}
	return out.then(c.submitRound(now))
}

func (c *Client) onBlameStart(now time.Time, m *Message) (*Output, error) {
	p, err := decode[BlameStart](m.Body)
	if err != nil {
		return c.violation(err), nil
	}
	if c.blameAt.IsZero() {
		c.blameAt = now
	}
	var msg []byte
	if c.witness != nil {
		// The witness bit travels slot-relative; servers translate.
		sig, err := c.pseudonym.Sign("dissent/accusation",
			accusationDigest(c.grpID, c.witness.round, c.mySlot, c.witness.bit), c.rand)
		if err != nil {
			return nil, err
		}
		msg = wire.Encode(&AccusationMsg{Round: c.witness.round, Slot: c.mySlot, Bit: c.witness.bit,
			Sig: crypto.EncodeSignature(c.keyGrp, sig)})
		c.accusedInSession = p.Session
	}
	width := shuffle.VecWidth(c.msgGrp, accusationLen(c.keyGrp))
	elems, err := shuffle.EmbedMessage(c.msgGrp, msg, width, c.rand)
	if err != nil {
		return nil, err
	}
	vec, err := shuffle.PrepareInput(c.msgGrp, c.def.ServerMsgPubKeys(), elems, c.rand)
	if err != nil {
		return nil, err
	}
	var ctBytes []byte
	for _, ct := range vec {
		ctBytes = append(ctBytes, crypto.EncodeCiphertext(c.msgGrp, ct)...)
	}
	body := wire.Encode(&ShuffleSubmit{Session: p.Session, CT: ctBytes})
	sm, err := c.sign(MsgBlameSubmit, m.Round, body)
	if err != nil {
		return nil, err
	}
	return &Output{Send: []Envelope{{To: c.upstream, Msg: sm}}}, nil
}

func (c *Client) onBlameDone(now time.Time, m *Message) (*Output, error) {
	p, err := decode[BlameDone](m.Body)
	if err != nil {
		return c.violation(err), nil
	}
	out := &Output{}
	if p.Verdict != 0 {
		out.Events = append(out.Events, Event{Kind: EventBlameVerdict, Round: m.Round,
			Culprit: p.Culprit, Detail: verdictDetail(p.Verdict)})
	}
	c.concludeBlame(c.blameAt, now, verdictDetail(p.Verdict), p.Culprit)
	c.blameAt = time.Time{}
	if c.witness != nil && c.accusedInSession == p.Session && p.Verdict != 0 {
		// Our accusation was carried and judged; stop re-requesting.
		c.witness = nil
	}
	if p.Verdict == 1 && p.Culprit == c.id {
		// We were expelled: stop submitting (but keep advancing our
		// schedule and beacon replicas from certified outputs) until a
		// roster update re-admits us after the policy cooldown. In-flight
		// rounds stay queued so their outputs still match and retire.
		c.expelled = true
		out.Events = append(out.Events, Event{Kind: EventMemberExpelled, Round: m.Round, Culprit: c.id})
	}
	// A completed blame session is a pipeline drain point on every
	// replica — the servers held new windows while it ran — so later
	// rounds ramp their delta-queue depth from here. Recorded even by
	// expelled or non-submitting observers, whose decode layouts must
	// track the group's.
	if c.ready {
		c.sched.Drained()
	}
	if !c.awaitingBlame {
		return out, nil
	}
	c.awaitingBlame = false
	if c.awaitingRoster || c.expelled {
		return out, nil
	}
	return out.then(c.submitRound(now))
}

func (c *Client) onRebuttalRequest(now time.Time, m *Message) (*Output, error) {
	p, err := decode[RebuttalRequest](m.Body)
	if err != nil {
		return c.violation(err), nil
	}
	if len(p.ServerBits) != len(c.def.Servers) {
		return c.violation(errors.New("rebuttal request with wrong bit count")), nil
	}
	// Find the server whose published pairwise bit disagrees with the
	// truth we can compute from our own seeds.
	target := -1
	for j := range c.def.Servers {
		trueBit := c.pad.StreamBit(c.serverSeeds[j], p.AccRound, int(p.AccBit))
		if trueBit != p.ServerBits[j] {
			target = j
			break
		}
	}
	if target < 0 {
		// All bits are genuine; we cannot rebut (an honest client never
		// reaches this state). Stay silent.
		return &Output{}, nil
	}
	serverPub := c.def.Servers[target].PubKey
	secret, err := c.kp.SharedSecret(serverPub)
	if err != nil {
		return nil, err
	}
	ctx := crypto.Hash("dissent/rebuttal", c.grpID[:],
		crypto.HashUint64(uint64(c.idx)), crypto.HashUint64(uint64(target)))
	proof, err := crypto.ProveDLEQ(c.keyGrp, c.kp.Private, serverPub, c.kp.Public, secret, ctx, c.rand)
	if err != nil {
		return nil, err
	}
	body := wire.Encode(&Rebuttal{
		Session:   p.Session,
		ServerIdx: int32(target),
		Secret:    c.keyGrp.Encode(secret),
		ProofC:    proof.C.Bytes(),
		ProofZ:    proof.Z.Bytes(),
	})
	rm, err := c.sign(MsgRebuttal, m.Round, body)
	if err != nil {
		return nil, err
	}
	return &Output{Send: []Envelope{{To: c.upstream, Msg: rm}}}, nil
}

func (c *Client) violation(err error) *Output {
	return &Output{Events: []Event{{Kind: EventProtocolViolation, Detail: err.Error()}}}
}

// findWitnessBit returns the first bit index where sent is 0 but got is
// 1, or -1 (LSB-first within bytes, matching dcnet.Bit).
func findWitnessBit(sent, got []byte) int {
	for i := range sent {
		if d := ^sent[i] & got[i]; d != 0 {
			for b := 0; b < 8; b++ {
				if d&(1<<uint(b)) != 0 {
					return i*8 + b
				}
			}
		}
	}
	return -1
}

// randBit draws a uniform bit.
func randBit(r io.Reader) bool {
	var b [1]byte
	readRand(r, b[:])
	return b[0]&1 == 1
}

// randNonzeroByte draws a uniform nonzero byte for the k-bit
// shuffle-request field (§3.9).
func randNonzeroByte(r io.Reader) byte {
	var b [1]byte
	for {
		readRand(r, b[:])
		if b[0] != 0 {
			return b[0]
		}
	}
}

func readRand(r io.Reader, p []byte) {
	if r == nil {
		r = rand.Reader
	}
	if _, err := io.ReadFull(r, p); err != nil {
		panic("core: randomness source failed: " + err.Error())
	}
}
