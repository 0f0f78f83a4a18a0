// Package group defines Dissent group membership: the static list of
// server and client public keys that constitutes a group, the policy
// knobs fixed at group creation, and the self-certifying group
// identifier (the hash of the definition file, §3.2).
package group

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"dissent/internal/crypto"
	"dissent/internal/dcnet"
)

// NodeID identifies a member: the first 8 bytes of the SHA-256 of its
// encoded public key, so identities are self-certifying.
type NodeID [8]byte

// String returns the hex form of the ID.
func (id NodeID) String() string { return hex.EncodeToString(id[:]) }

// IDFromKey derives a member's NodeID from its public key.
func IDFromKey(g crypto.Group, pub crypto.Element) NodeID {
	h := crypto.Hash("dissent/node-id", []byte(g.Name()), g.Encode(pub))
	var id NodeID
	copy(id[:], h[:8])
	return id
}

// Member is one group participant.
type Member struct {
	ID     NodeID
	PubKey crypto.Element
	// MsgPubKey is a server's public key in the message-shuffle group
	// (general message shuffles run in a mod-p group whose cheap
	// embedding suits arbitrary byte strings, §3.10). Nil for clients.
	MsgPubKey crypto.Element
	// Expelled marks a client removed by a certified RosterUpdate.
	// Expelled members stay in the list so client indices (and retained
	// round history) remain stable; they may be re-admitted by a later
	// update after the policy cooldown.
	Expelled bool
}

// Policy holds the group-creation-time protocol constants.
type Policy struct {
	// Alpha is the participation floor: round r does not complete until
	// at least Alpha * (round r-1 participation) clients submit (§3.7).
	Alpha float64
	// WindowThreshold is the client fraction that must submit before
	// the adaptive window starts closing (the paper uses 0.95, §5.1).
	WindowThreshold float64
	// WindowMultiplier scales the time-to-threshold to set the final
	// window (the paper evaluates 1.1, 1.2 and 2.0; default 1.1).
	WindowMultiplier float64
	// WindowMin is a lower bound on the submission window.
	WindowMin time.Duration
	// HardTimeout fails the round outright (the paper's 120 s).
	HardTimeout time.Duration
	// DefaultOpenLen and MaxSlotLen bound the DC-net slot lengths (see
	// internal/dcnet): a request bit opens a slot at DefaultOpenLen, and a
	// client keeps a slot no longer than that open while it has nothing to
	// send.
	DefaultOpenLen int
	MaxSlotLen     int
	// IdleCloseRounds is the silent-slot horizon in chains — one chain
	// being a round's submit, server hops and output, the span in which a
	// depth-d pipeline certifies d rounds. An open slot that comes out
	// all-zero — its owner keeping it open with nothing to send, or gone
	// offline — for IdleCloseRounds chains (IdleCloseRounds × PipelineDepth
	// consecutive rounds) closes. A record arriving within the horizon of
	// its sender's last one rides the next round instead of paying a
	// request round first; ARCHITECTURE "Record latency" sizes the default.
	IdleCloseRounds int
	// RetainRounds bounds per-round state kept for accusation tracing.
	RetainRounds int
	// BeaconEpochRounds enables the anytrust randomness beacon
	// (internal/beacon): servers contribute commit–reveal shares every
	// round and the slot schedule's layout permutation is re-derived
	// from the beacon output every BeaconEpochRounds rounds. 0 disables
	// the beacon entirely (large unsigned simulations).
	BeaconEpochRounds int
	// ReadmitCooldownRounds is the number of DC-net rounds an expelled
	// client must wait after its expulsion before a rejoin request is
	// eligible for re-admission at an epoch boundary (membership churn
	// runs only when BeaconEpochRounds is nonzero).
	ReadmitCooldownRounds int
	// OpenAdmission lets servers accept join requests from keys they
	// have not explicitly pre-approved with Admit. Admission remains a
	// per-server policy decision either way: a member enters only via a
	// certified roster update at an epoch boundary.
	OpenAdmission bool
	// MessageGroup names the group used for general message shuffles
	// (accusations): "modp-2048" in production, "modp-512-test" in
	// tests. See crypto.GroupByName.
	MessageGroup string
	// SignMessages controls per-message Schnorr signatures. Production
	// deployments leave this on; very large single-process simulations
	// may disable it and account signature cost analytically.
	SignMessages bool
}

// DefaultPolicy returns the policy used in the paper's evaluation.
func DefaultPolicy() Policy {
	return Policy{
		Alpha:                 0.95,
		WindowThreshold:       0.95,
		WindowMultiplier:      1.1,
		WindowMin:             50 * time.Millisecond,
		HardTimeout:           120 * time.Second,
		DefaultOpenLen:        1024,
		MaxSlotLen:            256 << 10,
		IdleCloseRounds:       12,
		RetainRounds:          8,
		BeaconEpochRounds:     16,
		ReadmitCooldownRounds: 32,
		OpenAdmission:         false,
		MessageGroup:          "modp-2048",
		SignMessages:          true,
	}
}

// Validate checks policy sanity.
func (p Policy) Validate() error {
	switch {
	case p.Alpha < 0 || p.Alpha > 1:
		return errors.New("group: Alpha outside [0,1]")
	case p.WindowThreshold <= 0 || p.WindowThreshold > 1:
		return errors.New("group: WindowThreshold outside (0,1]")
	case p.WindowMultiplier < 1:
		return errors.New("group: WindowMultiplier below 1")
	case p.HardTimeout <= 0:
		return errors.New("group: HardTimeout must be positive")
	case p.RetainRounds <= 0:
		return errors.New("group: RetainRounds must be positive")
	case p.BeaconEpochRounds < 0:
		return errors.New("group: BeaconEpochRounds must be non-negative")
	case p.ReadmitCooldownRounds < 0:
		return errors.New("group: ReadmitCooldownRounds must be non-negative")
	}
	// The slot parameters are checked by the schedule's own rule, here
	// rather than when the schedule is built after the setup shuffle.
	slots := dcnet.Config{NumSlots: 1, DefaultOpenLen: p.DefaultOpenLen, MaxSlotLen: p.MaxSlotLen, IdleCloseRounds: p.IdleCloseRounds}
	if err := slots.Validate(); err != nil {
		return fmt.Errorf("group: %w", err)
	}
	if _, err := crypto.GroupByName(p.MessageGroup); err != nil {
		return fmt.Errorf("group: %w", err)
	}
	return nil
}

// Definition is a complete group definition: the membership lists and
// policy. The hash of the genesis (Version 0) definition is the
// group's self-certifying ID; the client roster then evolves through
// certified RosterUpdates (see roster.go), with Version counting
// applied updates. The server set is fixed for the group's lifetime.
type Definition struct {
	Name    string
	Servers []Member
	Clients []Member
	Policy  Policy

	// Version is the roster version: 0 at genesis, incremented by each
	// applied RosterUpdate.
	Version uint64

	// genesisID caches the genesis definition's GroupID across roster
	// evolution; rosterDigest is the roster hash-chain head.
	genesisID    [32]byte
	genesisSet   bool
	rosterDigest [32]byte
	rosterSet    bool
}

// Group returns the identity-key group (fixed to P-256).
func (d *Definition) Group() crypto.Group { return crypto.P256() }

// MsgGroup returns the message-shuffle group named by the policy.
func (d *Definition) MsgGroup() crypto.Group {
	g, err := crypto.GroupByName(d.Policy.MessageGroup)
	if err != nil {
		panic("group: validated policy has unknown message group")
	}
	return g
}

// Validate checks structural validity: non-empty member lists, valid
// policy, unique IDs consistent with keys.
func (d *Definition) Validate() error {
	if len(d.Servers) == 0 {
		return errors.New("group: no servers")
	}
	if len(d.Clients) == 0 {
		return errors.New("group: no clients")
	}
	if err := d.Policy.Validate(); err != nil {
		return err
	}
	g := d.Group()
	mg := d.MsgGroup()
	for _, m := range d.Servers {
		if m.MsgPubKey == nil {
			return fmt.Errorf("group: server %s lacks a message-shuffle key", m.ID)
		}
		if mg.IsIdentity(m.MsgPubKey) {
			return fmt.Errorf("group: server %s has identity message key", m.ID)
		}
	}
	seen := make(map[NodeID]bool)
	for _, m := range append(append([]Member(nil), d.Servers...), d.Clients...) {
		if m.PubKey == nil {
			return fmt.Errorf("group: member %s has no key", m.ID)
		}
		if IDFromKey(g, m.PubKey) != m.ID {
			return fmt.Errorf("group: member %s ID does not match key", m.ID)
		}
		if seen[m.ID] {
			return fmt.Errorf("group: duplicate member %s", m.ID)
		}
		seen[m.ID] = true
	}
	return nil
}

// GroupID returns the self-certifying identifier: the hash of the
// canonical encoding of the genesis definition. Definitions evolved by
// ApplyRosterUpdate keep the genesis ID — the group's identity (and
// its session tag on shared transports) is stable across churn.
func (d *Definition) GroupID() [32]byte {
	if d.genesisSet {
		return d.genesisID
	}
	enc, err := d.MarshalJSON()
	if err != nil {
		// Marshal of a validated definition cannot fail.
		panic("group: marshal: " + err.Error())
	}
	var id [32]byte
	copy(id[:], crypto.Hash("dissent/group-id", enc))
	return id
}

// ServerPubKeys returns the servers' identity public keys in server
// index order (the verification key set for schedule certificates,
// round certificates, and beacon shares).
func (d *Definition) ServerPubKeys() []crypto.Element {
	pubs := make([]crypto.Element, len(d.Servers))
	for i, m := range d.Servers {
		pubs[i] = m.PubKey
	}
	return pubs
}

// ServerMsgPubKeys returns the servers' message-shuffle public keys in
// server index order (what accusation-shuffle inputs are encrypted to).
func (d *Definition) ServerMsgPubKeys() []crypto.Element {
	pubs := make([]crypto.Element, len(d.Servers))
	for i, m := range d.Servers {
		pubs[i] = m.MsgPubKey
	}
	return pubs
}

// ServerIndex returns the index of server id, or -1.
func (d *Definition) ServerIndex(id NodeID) int {
	for i, m := range d.Servers {
		if m.ID == id {
			return i
		}
	}
	return -1
}

// ClientIndex returns the index of client id, or -1.
func (d *Definition) ClientIndex(id NodeID) int {
	for i, m := range d.Clients {
		if m.ID == id {
			return i
		}
	}
	return -1
}

// UpstreamServer returns the server a client connects to by default:
// clients spread uniformly over servers by index.
func (d *Definition) UpstreamServer(clientIndex int) int {
	return clientIndex % len(d.Servers)
}

// jsonDef is the serialized form: keys as hex strings.
type jsonDef struct {
	Name    string       `json:"name"`
	Servers []jsonMember `json:"servers"`
	Clients []jsonMember `json:"clients"`
	Policy  Policy       `json:"policy"`
}

type jsonMember struct {
	PubKey string `json:"pubkey"`
	MsgKey string `json:"msgkey,omitempty"`
}

// MarshalJSON encodes the definition canonically (members in list
// order, keys hex-encoded; IDs are derived, not stored).
func (d *Definition) MarshalJSON() ([]byte, error) {
	g := d.Group()
	jd := jsonDef{Name: d.Name, Policy: d.Policy}
	mg := d.MsgGroup()
	for _, m := range d.Servers {
		jm := jsonMember{PubKey: hex.EncodeToString(g.Encode(m.PubKey))}
		if m.MsgPubKey != nil {
			jm.MsgKey = hex.EncodeToString(mg.Encode(m.MsgPubKey))
		}
		jd.Servers = append(jd.Servers, jm)
	}
	for _, m := range d.Clients {
		jd.Clients = append(jd.Clients, jsonMember{PubKey: hex.EncodeToString(g.Encode(m.PubKey))})
	}
	return json.Marshal(jd)
}

// UnmarshalJSON decodes and re-derives member IDs.
func (d *Definition) UnmarshalJSON(data []byte) error {
	var jd jsonDef
	if err := json.Unmarshal(data, &jd); err != nil {
		return err
	}
	g := crypto.P256()
	decode := func(jm jsonMember) (Member, error) {
		raw, err := hex.DecodeString(jm.PubKey)
		if err != nil {
			return Member{}, fmt.Errorf("group: bad key hex: %w", err)
		}
		pub, err := g.Decode(raw)
		if err != nil {
			return Member{}, fmt.Errorf("group: bad key: %w", err)
		}
		return Member{ID: IDFromKey(g, pub), PubKey: pub}, nil
	}
	d.Name = jd.Name
	d.Policy = jd.Policy
	mg, err := crypto.GroupByName(jd.Policy.MessageGroup)
	if err != nil {
		return fmt.Errorf("group: %w", err)
	}
	d.Servers, d.Clients = nil, nil
	for _, jm := range jd.Servers {
		m, err := decode(jm)
		if err != nil {
			return err
		}
		if jm.MsgKey != "" {
			raw, err := hex.DecodeString(jm.MsgKey)
			if err != nil {
				return fmt.Errorf("group: bad msg key hex: %w", err)
			}
			if m.MsgPubKey, err = mg.Decode(raw); err != nil {
				return fmt.Errorf("group: bad msg key: %w", err)
			}
		}
		d.Servers = append(d.Servers, m)
	}
	for _, jm := range jd.Clients {
		m, err := decode(jm)
		if err != nil {
			return err
		}
		d.Clients = append(d.Clients, m)
	}
	return nil
}

// NewDefinition assembles a definition from raw public keys, deriving
// IDs and sorting members by ID for canonical ordering. serverMsgKeys
// are the servers' message-shuffle-group keys, parallel to serverKeys.
func NewDefinition(name string, serverKeys, serverMsgKeys, clientKeys []crypto.Element, policy Policy) (*Definition, error) {
	if len(serverMsgKeys) != len(serverKeys) {
		return nil, errors.New("group: server key list lengths differ")
	}
	g := crypto.P256()
	servers := make([]Member, len(serverKeys))
	for i, k := range serverKeys {
		servers[i] = Member{ID: IDFromKey(g, k), PubKey: k, MsgPubKey: serverMsgKeys[i]}
	}
	sort.Slice(servers, func(a, b int) bool {
		return string(servers[a].ID[:]) < string(servers[b].ID[:])
	})
	clients := make([]Member, len(clientKeys))
	for i, k := range clientKeys {
		clients[i] = Member{ID: IDFromKey(g, k), PubKey: k}
	}
	sort.Slice(clients, func(a, b int) bool {
		return string(clients[a].ID[:]) < string(clients[b].ID[:])
	})
	d := &Definition{
		Name:    name,
		Servers: servers,
		Clients: clients,
		Policy:  policy,
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}
