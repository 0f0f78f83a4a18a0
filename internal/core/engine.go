package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"log/slog"
	"time"

	"dissent/internal/beacon"
	"dissent/internal/crypto"
	"dissent/internal/dcnet"
	"dissent/internal/group"
	"dissent/internal/obs"
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
	// EventProtocolViolation fires when a signed message fails
	// verification or a shuffle proof is invalid.
	EventProtocolViolation
	// EventWindowClosed fires at a server when it closes a round's
	// submission window — the boundary between "client submission" and
	// "server processing" time in the paper's Figures 7–8.
	EventWindowClosed
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
	// (bad-signature, malformed, equivocation, bad-certificate,
	// withholding, replay, flood, escalated). Repeated misbehavior
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
	case EventWindowClosed:
		return "window-closed"
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
}

func (o *Output) merge(other *Output) {
	if other == nil {
		return
	}
	o.Send = append(o.Send, other.Send...)
	o.Deliveries = append(o.Deliveries, other.Deliveries...)
	o.Events = append(o.Events, other.Events...)
	o.NewPeers = append(o.NewPeers, other.NewPeers...)
	if o.Timer.IsZero() || (!other.Timer.IsZero() && other.Timer.Before(o.Timer)) {
		o.Timer = other.Timer
	}
}

// StateStore is the durable key-value surface the engines persist
// protocol state through — satisfied by *store.KV. Mutations must be
// durable before they return. The engines use fixed buckets: "roster"
// for certified roster updates keyed by version, "roster-digest" for
// the post-apply schedule digests beside them, "blame" for completed
// blame-session transcripts, and "snapshot" for the server's restart
// snapshot.
type StateStore interface {
	Put(bucket, key string, value []byte) error
	Get(bucket, key string) ([]byte, bool)
	List(bucket string) []string
	Delete(bucket, key string) error
}

// StateStore bucket names.
const (
	bucketRoster       = "roster"
	bucketRosterDigest = "roster-digest"
	bucketBlame        = "blame"
	bucketSnapshot     = "snapshot"
)

// snapshotKey names the single server restart snapshot record.
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
	def     *group.Definition
	grpID   [32]byte
	keyGrp  crypto.Group // identity/pseudonym key group (P-256)
	msgGrp  crypto.Group // message shuffle group (modp-2048 by default)
	kp      *crypto.KeyPair
	id      group.NodeID
	rand    io.Reader
	signing bool

	// cert is the round certificate's signer set: the servers' aggregate
	// key (what a RoundOutput verifies under) and per-server terms. The
	// server set is fixed at genesis, so it is built once per engine.
	cert *crypto.Multisig

	// beaconChain is this node's replica of the anytrust randomness
	// beacon (nil when Policy.BeaconEpochRounds is 0). Servers extend
	// it through the round protocol's commit–reveal; clients extend it
	// from certified round outputs.
	beaconChain *beacon.Chain

	// store is the durable state store (nil = memory-only operation;
	// catch-up then serves only the in-memory roster log and restart
	// recovery is unavailable).
	store StateStore

	// trace receives one span record per completed round (nil = off);
	// log carries the engine's structured logger (never nil — a discard
	// handler when the embedder injects none).
	trace func(obs.RoundTrace)
	log   *slog.Logger

	// interdict is the adversary-injection hook (nil on honest nodes);
	// retry is the resolved retransmission backoff and retrySeed feeds its
	// deterministic jitter, derived from the node identity so peers
	// decorrelate.
	interdict *Interdict
	retry     RetryPolicy
	retrySeed uint64

	// pad expands pairwise DC-net streams; pairSeedFn, when non-nil,
	// replaces the Diffie–Hellman derivation of their seeds
	// (Options.PairSeed).
	pad        *dcnet.Pad
	pairSeedFn func(clientIdx, serverIdx int) []byte

	// The replica (replica.go). sched is the slot schedule (nil before
	// setup); head the output head — the oldest round whose certified
	// output has not been applied; drain the first round after the latest
	// pipeline drain (session start, applied roster update, completed
	// blame session), from which rounds ramp their delta-queue depth back
	// up — see dcnet.Schedule.Horizon and SyncPipeline; depth how many
	// rounds may be in flight (≥ 1; the schedule's lag is depth−1).
	// certKeys/certSigs retain the certified schedule (encoded slot keys,
	// every server's signature) for ScheduleCertificate.
	sched    *dcnet.Schedule
	head     uint64
	drain    uint64
	depth    int
	certKeys [][]byte
	certSigs [][]byte
}

// newNode resolves the options both roles share. firstRetry is the
// role's first-retry delay, the base of its retransmission backoff.
func newNode(def *group.Definition, kp *crypto.KeyPair, opts Options, firstRetry time.Duration) node {
	msgGrp := opts.MessageGroup
	if msgGrp == nil {
		msgGrp = crypto.ModP2048()
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	n := node{
		def:     def,
		grpID:   def.GroupID(),
		keyGrp:  def.Group(),
		msgGrp:  msgGrp,
		kp:      kp,
		id:      group.IDFromKey(def.Group(), kp.Public),
		rand:    opts.Rand,
		signing: def.Policy.SignMessages,
		store:   opts.StateStore,
		trace:   opts.OnRoundTrace,
		log:     logger,

		interdict:  opts.Interdict,
		pad:        dcnet.NewPad(crypto.NewAESPRNG),
		pairSeedFn: opts.PairSeed,
		depth:      max(opts.PipelineDepth, 1),
	}
	if opts.Retry != nil {
		n.retry = *opts.Retry
	}
	n.retry = n.retry.withDefaults(firstRetry)
	n.retrySeed = binary.BigEndian.Uint64(n.id[:8])
	pubs := def.ServerPubKeys()
	n.cert = crypto.NewMultisig(n.keyGrp, pubs)
	if def.Policy.BeaconEpochRounds > 0 {
		genesis := beacon.GenesisValue(n.grpID)
		if opts.BeaconStore != nil {
			n.beaconChain = beacon.NewChainWithStore(n.keyGrp, pubs, genesis, opts.BeaconStore)
		} else {
			n.beaconChain = beacon.NewChain(n.keyGrp, pubs, genesis)
		}
	}
	return n
}

// BeaconChain returns the node's beacon chain replica, or nil when the
// beacon is disabled by policy. The chain is safe for concurrent
// reads, so servers can expose it over HTTP while rounds progress.
func (n *node) BeaconChain() *beacon.Chain { return n.beaconChain }

// beaconValueBytes renders an entry's value for certification (nil
// entry -> nil, for failed rounds and beacon-off groups).
func beaconValueBytes(e *beacon.Entry) []byte {
	if e == nil {
		return nil
	}
	return e.Value[:]
}

// Options tunes engine construction.
type Options struct {
	// Rand is the randomness source (nil = crypto/rand).
	Rand io.Reader
	// MessageGroup is the accusation-shuffle group (nil = modp-2048).
	// Tests substitute a small Schnorr group for speed.
	MessageGroup crypto.Group
	// PairSeed, when non-nil, supplies the (clientIdx, serverIdx)
	// pairwise DC-net seed directly instead of deriving it from a
	// Diffie–Hellman exchange. Benchmark harnesses use this to skip
	// O(N·M) scalar multiplications at setup; both sides must use the
	// same function. Production deployments leave it nil.
	PairSeed func(clientIdx, serverIdx int) []byte
	// BeaconStore backs the node's beacon chain (nil = in-memory).
	// The SDK passes a beacon.KVStore over the session's state store
	// for durable, checkpointable chains.
	BeaconStore beacon.Store
	// StateStore backs the engine's durable protocol state: the
	// certified roster-update log (with post-apply schedule digests),
	// blame transcripts, and the server restart snapshot. nil keeps
	// everything in memory — catch-up is then limited to the bounded
	// in-memory roster log and crash recovery is unavailable.
	StateStore StateStore
	// NoPadPrefetch disables the servers' background pad expansion
	// during the submission window. The benchmark harness sets it so
	// its calibrated per-call compute accounting stays well-defined;
	// production deployments leave it off.
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
	// Retry tunes the unified retransmission backoff applied to the
	// servers' round-phase and roster-phase rebroadcasts and the
	// clients' stale-submission resend, join-request retries and roster
	// catch-up probes (see RetryPolicy). nil (or the zero value) keeps
	// the engines' legacy first-retry delays — 8×Policy.WindowMin at
	// servers, 2 s at clients — and adds capped exponential backoff
	// with deterministic jitter on top, so sustained loss or a wedged
	// peer triggers a decaying retransmit stream instead of a fixed-
	// period storm.
	Retry *RetryPolicy
	// Interdict installs the adversary-injection hook (see Interdict).
	// Robustness tests and the internal/adversary catalog use it to
	// script byzantine members; production nodes leave it nil.
	Interdict *Interdict
	// OnRoundTrace, when non-nil, receives one obs.RoundTrace per
	// completed round — the engine's phase timestamps as a span record.
	// It runs on the engine's calling goroutine and must be fast and
	// non-blocking; the SDK wires it to a bounded per-session ring and
	// the phase-latency histograms.
	OnRoundTrace func(obs.RoundTrace)
	// Logger receives the engine's structured logs (round milestones at
	// Debug, blame verdicts at Info). nil discards them.
	Logger *slog.Logger
}

// sign builds a Message, signing it when the policy requires.
func (n *node) sign(t MsgType, round uint64, body []byte) (*Message, error) {
	m := &Message{From: n.id, Type: t, Round: round, Body: body}
	if n.signing {
		if err := n.signDigest(m, m.digest(n.grpID)); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// signDigest signs m, whose digest the caller already holds.
func (n *node) signDigest(m *Message, digest []byte) error {
	sig, err := n.kp.Sign("dissent/msg", digest, n.rand)
	if err != nil {
		return err
	}
	m.Sig = crypto.EncodeSignature(n.keyGrp, sig)
	return nil
}

// verify checks a message's signature against the sender's registered
// key and confirms the sender holds the expected role.
func (n *node) verify(m *Message, wantServer bool) error {
	pub, err := n.senderKey(m, wantServer)
	if err != nil || !n.signing {
		return err
	}
	return n.verifyDigest(m, pub, m.digest(n.grpID))
}

// senderKey returns the registered key of m's sender, which must hold
// the expected role.
func (n *node) senderKey(m *Message, wantServer bool) (crypto.Element, error) {
	if si := n.def.ServerIndex(m.From); si >= 0 {
		if !wantServer {
			return nil, fmt.Errorf("core: %s from server %s not allowed", m.Type, m.From)
		}
		return n.def.Servers[si].PubKey, nil
	}
	if ci := n.def.ClientIndex(m.From); ci >= 0 {
		if wantServer {
			return nil, fmt.Errorf("core: %s from client %s not allowed", m.Type, m.From)
		}
		return n.def.Clients[ci].PubKey, nil
	}
	return nil, fmt.Errorf("core: message from unknown node %s", m.From)
}

// verifyDigest checks m's signature under pub over digest, which the
// caller computed with m.digest.
func (n *node) verifyDigest(m *Message, pub crypto.Element, digest []byte) error {
	sig, err := crypto.DecodeSignature(n.keyGrp, m.Sig)
	if err != nil {
		return fmt.Errorf("core: %s from %s: %w", m.Type, m.From, err)
	}
	if err := crypto.Verify(n.keyGrp, pub, "dissent/msg", digest, sig); err != nil {
		return fmt.Errorf("core: %s from %s: %w", m.Type, m.From, err)
	}
	return nil
}

// pairSeed derives the DC-net pairwise seed between this node and peer.
func (n *node) pairSeed(peerPub crypto.Element) ([]byte, error) {
	shared, err := n.kp.SharedSecret(peerPub)
	if err != nil {
		return nil, err
	}
	return crypto.SecretSeed(n.keyGrp, shared, n.kp.Public, peerPub), nil
}
