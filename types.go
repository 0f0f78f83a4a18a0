package dissent

import (
	"encoding/hex"
	"errors"
	"fmt"

	"dissent/internal/beacon"
	"dissent/internal/core"
	"dissent/internal/crypto"
	"dissent/internal/group"
	"dissent/internal/transport"
)

// The SDK's vocabulary is defined as aliases over the internal
// protocol packages: applications import only this package and name
// every type through it, while the engines, group machinery, and
// beacon keep their narrow internal boundaries.
type (
	// NodeID identifies a group member (first 8 bytes of the SHA-256 of
	// its public key; self-certifying).
	NodeID = group.NodeID
	// Group is a complete group definition: static membership lists
	// plus policy. Its hash is the group's self-certifying ID.
	Group = group.Definition
	// Policy holds the group-creation-time protocol constants.
	Policy = group.Policy
	// KeyPair is a private/public keypair in one of the protocol groups.
	KeyPair = crypto.KeyPair
	// Roster maps node IDs to dialable TCP addresses.
	Roster = transport.Roster
	// Message is an opaque signed protocol message in transit between
	// members; Transport implementations carry it whole.
	Message = core.Message
	// Event is a notable protocol state transition surfaced through
	// Node.Subscribe.
	Event = core.Event
	// EventKind classifies events.
	EventKind = core.EventKind
	// RoundOutput is one decoded anonymous message: the certified
	// round it appeared in, the sender's pseudonym slot (nothing links
	// a slot to a client), and the payload bytes.
	RoundOutput = core.Delivery
	// BeaconChain is a replica of the group's randomness beacon chain.
	BeaconChain = beacon.Chain
	// BeaconEntry is one verified link of the beacon chain.
	BeaconEntry = beacon.Entry
	// RosterUpdate is one certified membership transition: admissions
	// and removals hash-chained to the previous roster version and
	// signed by every server.
	RosterUpdate = group.RosterUpdate
	// RosterMember is one admitted member inside a RosterUpdate.
	RosterMember = group.RosterMember
	// RetryPolicy tunes the engine's retransmission backoff (see
	// WithRetryPolicy).
	RetryPolicy = core.RetryPolicy
	// Interdict is the scripted-byzantine-behavior hook robustness
	// harnesses install via WithInterdict; production nodes leave it
	// unset.
	Interdict = core.Interdict
	// VectorInfo hands an Interdict.Vector hook the round's slot
	// geometry.
	VectorInfo = core.VectorInfo
	// BlameTranscript is the durable record of one closed blame
	// session, persisted per session in the state store.
	BlameTranscript = core.BlameTranscript
)

// SessionID identifies one session — one group running on a process.
// It equals the group definition's self-certifying ID and tags the
// session's frames on shared transports, so many groups can share one
// listener (see Host) with exact routing and no allocation protocol.
type SessionID [32]byte

// String renders the ID as hex.
func (s SessionID) String() string { return fmt.Sprintf("%x", s[:]) }

// MarshalText renders the ID as hex for JSON/metrics output.
func (s SessionID) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses the hex rendering, so metrics and debug
// snapshots round-trip through JSON.
func (s *SessionID) UnmarshalText(b []byte) error {
	if hex.DecodedLen(len(b)) != len(s) {
		return fmt.Errorf("dissent: session ID must be %d hex characters", hex.EncodedLen(len(s)))
	}
	_, err := hex.Decode(s[:], b)
	return err
}

// GroupSessionID returns the session ID under which a group's members
// run: the group's self-certifying ID.
func GroupSessionID(def *Group) SessionID { return SessionID(def.GroupID()) }

// Event kinds, re-exported for Subscribe filters.
const (
	// EventScheduleReady fires when the slot schedule is established.
	EventScheduleReady = core.EventScheduleReady
	// EventRoundComplete fires at a server when a round certifies.
	EventRoundComplete = core.EventRoundComplete
	// EventRoundFailed fires when a round hits the hard timeout.
	EventRoundFailed = core.EventRoundFailed
	// EventDisruptionDetected fires at a client whose slot was garbled.
	EventDisruptionDetected = core.EventDisruptionDetected
	// EventBlameStarted fires when an accusation shuffle begins.
	EventBlameStarted = core.EventBlameStarted
	// EventBlameVerdict fires when tracing identifies a disruptor.
	EventBlameVerdict = core.EventBlameVerdict
	// EventProtocolViolation fires when a signed message or proof fails
	// verification.
	EventProtocolViolation = core.EventProtocolViolation
	// EventWindowClosed fires at a server when it closes a round's
	// submission window.
	EventWindowClosed = core.EventWindowClosed
	// EventEpochRotated fires when a node re-derives the slot
	// permutation from the randomness beacon at an epoch boundary, as it
	// applies that boundary's certified roster update. Event.Round is the
	// first round of the new epoch, not the last round of the finished
	// one. It fires once per
	// applied update: a member catching up through several updates at
	// once emits one event for each, all with the same Round.
	EventEpochRotated = core.EventEpochRotated
	// EventMemberJoined fires when a certified roster update admits a
	// member (new joiner or re-admitted expellee); Event.Culprit carries
	// the member's ID.
	EventMemberJoined = core.EventMemberJoined
	// EventMemberExpelled fires when a member is expelled — by blame
	// verdict or certified removal; Event.Culprit carries its ID.
	EventMemberExpelled = core.EventMemberExpelled
	// EventRosterChanged fires when a certified roster update is
	// applied; Event.Detail carries the new version.
	EventRosterChanged = core.EventRosterChanged
	// EventStateRestored fires when a restarted server resumes a live
	// session from its durable state store.
	EventStateRestored = core.EventStateRestored
	// EventReplicaResynced fires when a client replaces its diverged or
	// too-far-behind schedule replica with a certified snapshot from a
	// server.
	EventReplicaResynced = core.EventReplicaResynced
	// EventMisbehavior fires when ingress validation attributes a
	// protocol offense to a verified sender; Event.Culprit carries the
	// offender and Event.Detail is "<kind>: <cause>" with kind one of
	// bad-signature, malformed, equivocation, bad-certificate,
	// withholding, replay, flood, or escalated (the offender crossed
	// the removal threshold).
	EventMisbehavior = core.EventMisbehavior
)

// DefaultPolicy returns the policy used in the paper's evaluation.
func DefaultPolicy() Policy { return group.DefaultPolicy() }

// Keys holds one member's private keys. Every member has an identity
// keypair (P-256); servers additionally hold a keypair in the
// message-shuffle group named by the policy.
type Keys struct {
	Identity   *KeyPair
	MsgShuffle *KeyPair // servers only
}

// GenerateServerKeys creates fresh server keys for a group using the
// given policy's message-shuffle group.
func GenerateServerKeys(policy Policy) (Keys, error) {
	mg, err := crypto.GroupByName(policy.MessageGroup)
	if err != nil {
		return Keys{}, err
	}
	kp, err := crypto.GenerateKeyPair(crypto.P256(), nil)
	if err != nil {
		return Keys{}, err
	}
	mkp, err := crypto.GenerateKeyPair(mg, nil)
	if err != nil {
		return Keys{}, err
	}
	return Keys{Identity: kp, MsgShuffle: mkp}, nil
}

// GenerateClientKeys creates a fresh client identity keypair.
func GenerateClientKeys() (Keys, error) {
	kp, err := crypto.GenerateKeyPair(crypto.P256(), nil)
	if err != nil {
		return Keys{}, err
	}
	return Keys{Identity: kp}, nil
}

// NewGroup assembles a group definition from member keys. Only public
// keys enter the definition; the Keys values stay with their owners.
// Members are sorted by ID internally, so positions in the input
// slices need not match definition indices — nodes locate themselves
// by key.
func NewGroup(name string, serverKeys, clientKeys []Keys, policy Policy) (*Group, error) {
	sPubs := make([]crypto.Element, len(serverKeys))
	sMsgPubs := make([]crypto.Element, len(serverKeys))
	for i, k := range serverKeys {
		if k.Identity == nil || k.MsgShuffle == nil {
			return nil, fmt.Errorf("dissent: server keys %d incomplete (need Identity and MsgShuffle)", i)
		}
		sPubs[i] = k.Identity.Public
		sMsgPubs[i] = k.MsgShuffle.Public
	}
	cPubs := make([]crypto.Element, len(clientKeys))
	for i, k := range clientKeys {
		if k.Identity == nil {
			return nil, errors.New("dissent: client keys lack an identity keypair")
		}
		cPubs[i] = k.Identity.Public
	}
	return group.NewDefinition(name, sPubs, sMsgPubs, cPubs, policy)
}
