package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"log/slog"
	"sync/atomic"
	"time"

	"dissent/internal/beacon"
	"dissent/internal/crypto"
	"dissent/internal/dcnet"
	"dissent/internal/group"
	"dissent/internal/obs"
	"dissent/internal/store"
)

// Envelope is one outbound message with its destination.
type Envelope struct {
	To  group.NodeID
	Msg *Message
}

// EventKind classifies engine events surfaced to the application.
type EventKind int

// Event kinds.
const (
	// EventScheduleReady fires when the slot schedule is established.
	EventScheduleReady EventKind = iota + 1
	// EventRoundComplete fires at a server when a round certifies.
	EventRoundComplete
	// EventRoundFailed fires when a round hits the hard timeout.
	EventRoundFailed
	// EventDisruptionDetected fires at a client whose slot was garbled.
	EventDisruptionDetected
	// EventBlameStarted fires when an accusation shuffle begins.
	EventBlameStarted
	// EventBlameVerdict fires when tracing identifies a disruptor.
	EventBlameVerdict
	// EventProtocolViolation fires when a message fails ingress (its
	// type, sender role or signature) or a handler's checks, or a shuffle
	// proof is invalid.
	EventProtocolViolation
	// EventEpochRotated fires when a node applies an epoch boundary's
	// certified roster update, which re-derives the slot permutation from
	// the randomness beacon and the new roster digest. Round is the
	// boundary round — the first of the new epoch, laid out under the new
	// permutation — and a member that applies several updates at once
	// (catching up) emits one event per update, all with the same Round.
	EventEpochRotated
	// EventMemberJoined fires when a certified roster update admits a
	// member (new joiner or re-admitted expellee); Culprit carries the
	// member's ID.
	EventMemberJoined
	// EventMemberExpelled fires when a certified roster update removes a
	// member; Culprit carries the member's ID.
	EventMemberExpelled
	// EventRosterChanged fires whenever a certified roster update is
	// applied; Detail carries the new version.
	EventRosterChanged
	// EventStateRestored fires when a restarted server resumes a live
	// session from its durable state store instead of running setup.
	EventStateRestored
	// EventReplicaResynced fires when a client replaces its schedule
	// replica with a certified snapshot from a server: the catch-up
	// answer to a schedule-digest mismatch or to a position past the
	// retained roster history or round outputs.
	EventReplicaResynced
	// EventMisbehavior fires when a server attributes a protocol
	// violation to a specific roster member: Culprit names the peer
	// and Detail is "<kind>: <cause>", where kind is a stable label
	// (malformed, equivocation, bad-certificate, withholding, replay,
	// flood, escalated). Only a sender whose signature ingress verified
	// is ever named. Repeated misbehavior
	// past the escalation threshold queues a client for certified
	// removal at the next epoch boundary.
	EventMisbehavior
)

func (k EventKind) String() string {
	switch k {
	case EventScheduleReady:
		return "schedule-ready"
	case EventRoundComplete:
		return "round-complete"
	case EventRoundFailed:
		return "round-failed"
	case EventDisruptionDetected:
		return "disruption-detected"
	case EventBlameStarted:
		return "blame-started"
	case EventBlameVerdict:
		return "blame-verdict"
	case EventProtocolViolation:
		return "protocol-violation"
	case EventEpochRotated:
		return "epoch-rotated"
	case EventMemberJoined:
		return "member-joined"
	case EventMemberExpelled:
		return "member-expelled"
	case EventRosterChanged:
		return "roster-changed"
	case EventStateRestored:
		return "state-restored"
	case EventReplicaResynced:
		return "replica-resynced"
	case EventMisbehavior:
		return "misbehavior"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is a notable state transition.
type Event struct {
	Kind  EventKind
	Round uint64
	// Culprit names the member an event concerns: the disruptor for
	// blame verdicts, the joined/expelled member for roster events.
	Culprit group.NodeID
	Detail  string
}

// PeerInfo announces a newly admitted member's transport address so
// address-based fabrics (TCP) can attach it mid-session.
type PeerInfo struct {
	ID   group.NodeID
	Addr string
}

// Delivery is one decoded anonymous message handed to the application:
// slot identifies the anonymous sender's pseudonym slot, not a client.
type Delivery struct {
	Round uint64
	Slot  int
	Data  []byte
}

// Output aggregates everything an engine produced during one call.
type Output struct {
	// Send lists messages to transmit.
	Send []Envelope
	// Timer requests a Tick at (or soon after) the given time; zero
	// means no timer is needed.
	Timer time.Time
	// Deliveries are decoded slot messages (clients and servers both
	// observe the anonymous channel's cleartext).
	Deliveries []Delivery
	// Events are notable transitions.
	Events []Event
	// NewPeers lists members admitted by a roster update this call,
	// with their transport addresses. The I/O layer must register them
	// with the fabric before transmitting Send (the welcome message to
	// a joiner needs its address already routable).
	NewPeers []PeerInfo
	// Traces are the span records of the rounds this call completed,
	// timed on the engine's clock — the one per-round timing record.
	Traces []obs.RoundTrace
}

func (o *Output) merge(other *Output) {
	if other == nil {
		return
	}
	o.Send = append(o.Send, other.Send...)
	o.Deliveries = append(o.Deliveries, other.Deliveries...)
	o.Events = append(o.Events, other.Events...)
	o.NewPeers = append(o.NewPeers, other.NewPeers...)
	o.Traces = append(o.Traces, other.Traces...)
	if o.Timer.IsZero() || (!other.Timer.IsZero() && other.Timer.Before(o.Timer)) {
		o.Timer = other.Timer
	}
}

// then merges more into o unless the step that produced it failed: the
// tail of a handler that continues into a next step, return
// out.then(s.next(now)).
func (o *Output) then(more *Output, err error) (*Output, error) {
	if err != nil {
		return nil, err
	}
	o.merge(more)
	return o, nil
}

// StateStore is the durable key-value surface the engines persist
// protocol state through. The engines use fixed buckets: "roster" for
// certified roster updates and their post-apply schedule digests
// (RosterUpdateMsg) keyed by version, "snapshot" for the server's
// restart snapshot (ServerSnapshot) and "roster-propose" for the
// proposal of a roster phase in progress (RosterPropose). Every record
// is written by wire.EncodeRecord and read by wire.DecodeRecord, so it
// starts with the record format byte.
type StateStore = store.Durable

// StateStore bucket names.
const (
	bucketRoster   = "roster"
	bucketSnapshot = "snapshot"
	bucketProposal = "roster-propose"
)

// snapshotKey names the server's single record in a bucket that holds
// one: the restart snapshot, and the roster proposal in progress.
const snapshotKey = "server"

// HasSnapshot reports whether st holds a server restart snapshot —
// i.e. whether a server session can resume from it.
func HasSnapshot(st StateStore) bool {
	if st == nil {
		return false
	}
	_, ok := st.Get(bucketSnapshot, snapshotKey)
	return ok
}

// versionKey renders a roster version as a fixed-width store key so
// the store's sorted key listing is numeric version order.
func versionKey(v uint64) string { return fmt.Sprintf("%020d", v) }

// node is state common to client and server engines.
type node struct {
	def *group.Definition
	// published is def as other goroutines see it: setDef stores every
	// replacement here, and ingress reads the definition from this pointer
	// alone, so a message can be checked while the engine steps.
	published *atomic.Pointer[group.Definition]

	grpID  [32]byte
	keyGrp crypto.Group // identity/pseudonym key group (P-256)
	msgGrp crypto.Group // message shuffle group (Policy.MessageGroup)
	kp     *crypto.KeyPair
	id     group.NodeID
	rand   io.Reader

	// cert is the round certificate's signer set: the servers' aggregate
	// key (what a RoundOutput verifies under) and per-server terms. The
	// server set is fixed at genesis, so it is built once per engine.
	cert *crypto.Multisig

	// beaconChain is this node's replica of the anytrust randomness
	// beacon (nil when Policy.BeaconEpochRounds is 0). Every member
	// extends it in retire, with the certified round's certificate as the
	// entry.
	beaconChain *beacon.Chain

	// store is the durable state store (nil = memory-only operation;
	// catch-up then serves only the in-memory roster log and restart
	// recovery is unavailable).
	store StateStore

	// log carries the engine's structured logger (never nil — a discard
	// handler when the embedder injects none).
	log *slog.Logger

	// blameSpan holds a concluded accusation shuffle's outcome (Blame,
	// BlameVerdict, BlameAccused) until emitSpan attaches it to the next
	// round span.
	blameSpan obs.RoundTrace

	// interdict is the adversary-injection hook (nil on honest nodes);
	// retry is the role's retransmission backoff and retrySeed feeds its
	// deterministic jitter, derived from the node identity so peers
	// decorrelate.
	interdict *Interdict
	retry     backoff
	retrySeed uint64

	// pad expands pairwise DC-net streams from the Diffie–Hellman seeds
	// pairSeed derives.
	pad *dcnet.Pad

	// The replica (replica.go). sched is the slot schedule (nil before
	// setup), which holds the output head (node.head) and the latest
	// pipeline drain point with the slot state; depth how many rounds may
	// be in flight (≥ 1; the schedule's lag is depth−1). certKeys/certSigs
	// retain the certified schedule (encoded slot keys, every server's
	// signature) for ScheduleCertificate.
	sched    *dcnet.Schedule
	depth    int
	certKeys [][]byte
	certSigs [][]byte
}

// newNode resolves the options both roles share. firstRetry is the
// role's first-retry delay, the base of its retransmission backoff.
func newNode(def *group.Definition, kp *crypto.KeyPair, opts Options, firstRetry time.Duration) (node, error) {
	msgGrp := def.MsgGroup()
	if opts.MessageGroup != nil && opts.MessageGroup.Name() != msgGrp.Name() {
		return node{}, fmt.Errorf("core: message group %s, but the policy names %s",
			opts.MessageGroup.Name(), msgGrp.Name())
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	n := node{
		published: new(atomic.Pointer[group.Definition]),
		grpID:     def.GroupID(),
		keyGrp:    def.Group(),
		msgGrp:    msgGrp,
		kp:        kp,
		id:        group.IDFromKey(def.Group(), kp.Public),
		rand:      opts.Rand,
		store:     opts.StateStore,
		log:       logger,

		interdict: opts.Interdict,
		retry:     backoff(firstRetry),
		pad:       dcnet.NewPad(crypto.NewAESPRNG),
		depth:     max(opts.PipelineDepth, 1),
	}
	n.setDef(def)
	n.retrySeed = binary.BigEndian.Uint64(n.id[:8])
	pubs := def.ServerPubKeys()
	n.cert = crypto.NewMultisig(n.keyGrp, pubs)
	if def.Policy.BeaconEpochRounds > 0 {
		n.beaconChain = beacon.NewChain(n.keyGrp, pubs, beacon.GenesisValue(n.grpID), opts.BeaconStore)
	}
	return n, nil
}

// setDef replaces the engine's definition and publishes it to ingress.
// A published definition is never mutated: an update derives a new one.
func (n *node) setDef(def *group.Definition) {
	n.def = def
	n.published.Store(def)
}

// BeaconChain returns the node's beacon chain replica, or nil when the
// beacon is disabled by policy. The chain is safe for concurrent
// reads, so servers can expose it over HTTP while rounds progress.
func (n *node) BeaconChain() *beacon.Chain { return n.beaconChain }

// concludeBlame records the outcome of an accusation shuffle that ran
// from start to now for the next round span. A zero start (the engine
// did not see the shuffle open) records nothing.
func (n *node) concludeBlame(start, now time.Time, verdict string, culprit group.NodeID) {
	if start.IsZero() {
		return
	}
	n.blameSpan = obs.RoundTrace{Blame: now.Sub(start), BlameVerdict: verdict}
	if culprit != (group.NodeID{}) {
		n.blameSpan.BlameAccused = culprit.String()
	}
}

// emitSpan puts a round's span into out, carrying the outcome of the
// accusation shuffle concluded since the previous span, if any.
func (n *node) emitSpan(t obs.RoundTrace, out *Output) {
	t.Blame, t.BlameVerdict, t.BlameAccused = n.blameSpan.Blame, n.blameSpan.BlameVerdict, n.blameSpan.BlameAccused
	n.blameSpan = obs.RoundTrace{}
	out.Traces = append(out.Traces, t)
}

// verdictDetail names a blame verdict code in its EventBlameVerdict
// detail and span record.
func verdictDetail(verdict byte) string {
	switch verdict {
	case 1:
		return "client expelled"
	case 2:
		return "server exposed"
	default:
		return "inconclusive"
	}
}

// certDigest is what round's certificate signs (beacon.CertDigest),
// chained on the beacon head. Rounds certify in round order, so the head
// is the value of the last entry before round at every member. A group
// without the beacon chains every round on its group-wide genesis.
func (n *node) certDigest(round uint64, count int, cleartext beacon.Value) []byte {
	prev := beacon.GenesisValue(n.grpID)
	if n.beaconChain != nil {
		prev = n.beaconChain.Head()
	}
	return beacon.CertDigest(round, uint32(count), cleartext, prev)
}

// Options tunes engine construction.
type Options struct {
	// Rand is the randomness source (nil = crypto/rand).
	Rand io.Reader
	// MessageGroup is the accusation-shuffle group (nil =
	// def.MsgGroup(), the group Policy.MessageGroup names). A non-nil
	// group must carry that name; the constructors refuse any other.
	MessageGroup crypto.Group
	// BeaconStore, when non-nil, is the KV bucket the node's beacon
	// chain writes each certified entry to (one fsynced Put) before
	// accepting it; nil keeps the chain in memory. The SDK opens it as
	// the "beacon" bucket of the session's state store. The chain keeps
	// every entry for the session's lifetime either way.
	BeaconStore *beacon.KVStore
	// StateStore backs the engine's durable protocol state: the
	// certified roster-update log (with post-apply schedule digests) and
	// the server restart snapshot. nil keeps everything in memory —
	// catch-up is then limited to the bounded in-memory roster log and
	// crash recovery is unavailable.
	StateStore StateStore
	// NoPadPrefetch disables the servers' background pad expansion
	// during the submission window. internal/bench sets it so the
	// harness's measured per-call compute accounting stays
	// well-defined; production deployments leave it off.
	NoPadPrefetch bool
	// PipelineDepth is how many DC-net rounds may be in flight at once
	// (0 or 1 = serial). At depth d, round r+1's submission window opens
	// the moment round r's collection closes, overlapping r's pad/
	// combine/certify work with r+1's collection; clients submit into
	// r+1 while still awaiting r's certified output. Every node in a
	// group MUST use the same depth — the schedule's lagged layout
	// (layout for round k excludes the d−1 most recent rounds' deltas)
	// is part of the replicated state. The pipeline drains to empty at
	// epoch boundaries and before accusation shuffles.
	PipelineDepth int
	// Interdict installs the adversary-injection hook (see Interdict).
	// Robustness tests and the internal/adversary catalog use it to
	// script byzantine members; production nodes leave it nil.
	Interdict *Interdict
	// Logger receives the engine's structured logs (round milestones at
	// Debug, blame verdicts at Info). nil discards them.
	Logger *slog.Logger
}

// sign builds a Message and signs it.
func (n *node) sign(t MsgType, round uint64, body []byte) (*Message, error) {
	m := &Message{From: n.id, Type: t, Round: round, Body: body}
	if err := n.signDigest(m, m.digest(n.grpID)); err != nil {
		return nil, err
	}
	return m, nil
}

// signDigest signs m, whose digest the caller already holds.
func (n *node) signDigest(m *Message, digest []byte) error {
	sig, err := n.kp.Sign(msgContext, digest, n.rand)
	if err != nil {
		return err
	}
	m.Sig = crypto.EncodeSignature(n.keyGrp, sig)
	return nil
}

// sender is a role a message may come from. An engine's sender-role
// table (serverSenders, clientSenders) maps each message type it takes
// to the roles allowed to send it.
type sender uint8

const (
	fromClient sender = 1 << iota
	fromServer
	// fromJoiner is a sender outside the roster: a prospective member's
	// join request, verified under the identity key its body names.
	fromJoiner
	// fromExpelled is a client the roster has expelled: it may still ask
	// to rejoin or to catch up, and nothing else.
	fromExpelled
	// certified marks a type whose body authenticates it (a round output
	// carries the servers' certificate): ingress checks the sender's role
	// and not the envelope.
	certified
)

var senderNames = map[sender]string{fromClient: "client", fromServer: "server", fromJoiner: "unknown node", fromExpelled: "expelled client"}

// Checked is an inbound message with the outcome of its ingress check:
// the digest its envelope signature covers (nil for a certified type)
// and the sender's role — or why the message failed. A Checked value
// belongs to one delivery; the *Message it names may be shared by every
// recipient and carries nothing of the check.
type Checked struct {
	Msg    *Message
	digest []byte
	role   sender
	err    error
}

// roleOf returns the role id holds in def and, for a member, its key.
func roleOf(def *group.Definition, id group.NodeID) (sender, crypto.Element) {
	if si := def.ServerIndex(id); si >= 0 {
		return fromServer, def.Servers[si].PubKey
	}
	if ci := def.ClientIndex(id); ci >= 0 {
		if def.Clients[ci].Expelled {
			return fromExpelled, def.Clients[ci].PubKey
		}
		return fromClient, def.Clients[ci].PubKey
	}
	return fromJoiner, nil
}

// ingress is the one check every inbound message passes before any
// handler or the stash sees it: the engine takes its type, the sender
// holds a role the engine's sender-role table allows for that type, and
// the envelope signature verifies under the sender's key. It reads the
// published definition and the engine's immutable fields (group ID, key
// group) and nothing else, so any goroutine may run it while the engine
// steps. A message that fails is charged to no one: the member it names
// did not necessarily send it.
func (n *node) ingress(m *Message, senders map[MsgType]sender) Checked {
	c := Checked{Msg: m}
	var pub crypto.Element
	c.role, pub = roleOf(n.published.Load(), m.From)
	allowed, ok := senders[m.Type]
	switch {
	case !ok:
		c.err = fmt.Errorf("core: %s from %s: not a message this engine takes", m.Type, m.From)
	case allowed&c.role == 0:
		c.err = fmt.Errorf("core: %s from %s %s not allowed", m.Type, senderNames[c.role], m.From)
	case allowed&certified != 0:
	case c.role == fromJoiner:
		if pub, c.err = joinerKey(n.keyGrp, m); c.err == nil {
			c.digest, c.err = n.verify(m, pub)
		}
	default:
		c.digest, c.err = n.verify(m, pub)
	}
	return c
}

// admit takes a checked message into the engine, on the engine's
// goroutine: it returns the digest ingress verified, or why the message
// is refused. The check may have read a definition the engine has since
// replaced. It still holds for the sender's key — a NodeID hashes its
// key — but not necessarily for its role, so the role is looked up again
// in the current definition; a sender whose role moved (an expelled
// client, an admitted joiner) is checked afresh. The outcome is always
// the one ingress gives under the current definition.
func (n *node) admit(c Checked, senders map[MsgType]sender) ([]byte, error) {
	if role, _ := roleOf(n.def, c.Msg.From); role != c.role {
		c = n.ingress(c.Msg, senders)
	}
	return c.digest, c.err
}

// joinerKey returns the identity key a non-member's join request names.
// The request is self-certifying: its sender's NodeID must hash from
// that key.
func joinerKey(g crypto.Group, m *Message) (crypto.Element, error) {
	p, err := decode[JoinRequest](m.Body)
	if err != nil {
		return nil, err
	}
	pub, err := g.Decode(p.PubKey)
	if err != nil {
		return nil, fmt.Errorf("core: join request key: %w", err)
	}
	if group.IDFromKey(g, pub) != m.From {
		return nil, fmt.Errorf("core: join request ID %s does not match its key", m.From)
	}
	return pub, nil
}

// verify checks m's envelope signature under pub and returns the digest
// it covers.
func (n *node) verify(m *Message, pub crypto.Element) ([]byte, error) {
	sig, err := crypto.DecodeSignature(n.keyGrp, m.Sig)
	if err != nil {
		return nil, fmt.Errorf("core: %s from %s: %w", m.Type, m.From, err)
	}
	digest := m.digest(n.grpID)
	if err := crypto.Verify(n.keyGrp, pub, msgContext, digest, sig); err != nil {
		return nil, fmt.Errorf("core: %s from %s: %w", m.Type, m.From, err)
	}
	return digest, nil
}

// pairSeed derives the DC-net pairwise seed between this node and peer.
func (n *node) pairSeed(peerPub crypto.Element) ([]byte, error) {
	shared, err := n.kp.SharedSecret(peerPub)
	if err != nil {
		return nil, err
	}
	return crypto.SecretSeed(n.keyGrp, shared, n.kp.Public, peerPub), nil
}
