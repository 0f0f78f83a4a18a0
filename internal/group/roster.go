package group

import (
	"errors"
	"fmt"
	"io"

	"dissent/internal/crypto"
	"dissent/internal/wire"
)

// Membership churn (§3.7, §3.9 aftermath): the group's client roster is
// versioned. Version 0 is the genesis definition; every epoch boundary
// the anytrust server set certifies a RosterUpdate — a delta of
// admissions (new joiners, re-admitted expellees) and removals — that
// is hash-chained to the previous version. The server list never
// changes: churn decisions are server-side policy, the versioned
// update is the shared mechanism every replica applies in lockstep.

// RosterSignContext is the Schnorr context servers sign roster updates
// under — shared by the certifying servers (internal/core) and every
// verifier, so the two sides can never drift apart.
const RosterSignContext = "dissent/roster"

// RosterMember is one admitted member in a roster update: the identity
// key, the pseudonym key that seeds the member's message slot (empty
// for re-admissions, whose original slot survives), and an optional
// dialable transport address for TCP fabrics.
type RosterMember struct {
	PubKey  []byte // encoded identity public key (P-256)
	PseuKey []byte // encoded pseudonym slot key; empty when re-admitting
	Addr    string // transport address; empty on address-less fabrics
}

// RosterUpdate is one certified roster transition: applying it to the
// definition at Version-1 yields the definition at Version. PrevDigest
// chains it to the previous version's roster digest, and Sigs holds one
// Schnorr signature per server (in server index order) over
// SignedBytes, so a single honest server suffices to prevent a forged
// transition.
type RosterUpdate struct {
	Version    uint64
	PrevDigest [32]byte
	Admit      []RosterMember
	Remove     []NodeID
	Sigs       [][]byte
}

// maxRosterList bounds decoded list lengths against hostile inputs.
const maxRosterList = 1 << 20

// RosterMembers is the member-list field RosterUpdate shares with
// internal/core's RosterPropose — one field list, so the proposal
// framing and the certified update framing can never drift apart.
func RosterMembers(c *wire.Codec, ms *[]RosterMember) {
	wire.List(c, ms, maxRosterList, 3*4, func(c *wire.Codec, m *RosterMember) {
		c.Bytes(&m.PubKey)
		c.Bytes(&m.PseuKey)
		c.String(&m.Addr)
	})
}

// NodeIDs is the node-ID list field the same two payloads share.
func NodeIDs(c *wire.Codec, ids *[]NodeID) {
	wire.List(c, ids, maxRosterList, len(NodeID{}), func(c *wire.Codec, id *NodeID) { c.Fixed(id[:]) })
}

// bodyFields is everything the signatures cover.
func (u *RosterUpdate) bodyFields(c *wire.Codec) {
	c.U64(&u.Version)
	c.Fixed(u.PrevDigest[:])
	RosterMembers(c, &u.Admit)
	NodeIDs(c, &u.Remove)
}

// Fields lays out the update, signatures included.
func (u *RosterUpdate) Fields(c *wire.Codec) {
	u.bodyFields(c)
	c.ByteSlices(&u.Sigs)
}

// rosterBody is an update seen as its signed body alone.
type rosterBody RosterUpdate

func (b *rosterBody) Fields(c *wire.Codec) { (*RosterUpdate)(b).bodyFields(c) }

// DecodeRosterUpdate parses an encoded update.
func DecodeRosterUpdate(data []byte) (*RosterUpdate, error) {
	u := new(RosterUpdate)
	if err := wire.Decode(data, u); err != nil {
		return nil, err
	}
	return u, nil
}

// SignedBytes is the byte string each server signs (and every replica
// verifies) to certify the update for one group.
func (u *RosterUpdate) SignedBytes(groupID [32]byte) []byte {
	return crypto.Hash("dissent/roster-update", groupID[:], wire.Encode((*rosterBody)(u)))
}

// Digest condenses the certified transition into the chain head the
// next version's PrevDigest must match. Signatures are excluded so the
// digest is computable before certification completes.
func (u *RosterUpdate) Digest(groupID [32]byte) [32]byte {
	var d [32]byte
	copy(d[:], crypto.Hash("dissent/roster-digest", u.SignedBytes(groupID)))
	return d
}

// SignRosterUpdate produces one server's certification signature.
// rand is the signature randomness source (nil = crypto/rand).
func SignRosterUpdate(u *RosterUpdate, groupID [32]byte, kp *crypto.KeyPair, rand io.Reader) ([]byte, error) {
	g := crypto.P256()
	sig, err := kp.Sign(RosterSignContext, u.SignedBytes(groupID), rand)
	if err != nil {
		return nil, err
	}
	return crypto.EncodeSignature(g, sig), nil
}

// RosterDigest returns the hash-chain head authenticating the current
// roster version: the genesis digest for Version 0, or the digest of
// the update that produced this version.
func (d *Definition) RosterDigest() [32]byte {
	if d.rosterSet {
		return d.rosterDigest
	}
	gid := d.GroupID()
	var dig [32]byte
	copy(dig[:], crypto.Hash("dissent/roster-genesis", gid[:]))
	return dig
}

// VerifyRosterUpdate checks an update against this definition: the
// version must follow ours, the chain digest must match, the delta must
// be well formed, and every server must have signed.
func (d *Definition) VerifyRosterUpdate(u *RosterUpdate) error {
	if u.Version != d.Version+1 {
		return fmt.Errorf("group: roster update version %d, want %d (stale or future)", u.Version, d.Version+1)
	}
	if u.PrevDigest != d.RosterDigest() {
		return errors.New("group: roster update chains from a different roster")
	}
	if len(u.Sigs) != len(d.Servers) {
		return fmt.Errorf("group: roster update has %d signatures, want %d", len(u.Sigs), len(d.Servers))
	}
	g := d.Group()
	removed := make(map[NodeID]bool, len(u.Remove))
	for _, id := range u.Remove {
		if removed[id] {
			return fmt.Errorf("group: duplicate removal of %s", id)
		}
		removed[id] = true
		if ci := d.ClientIndex(id); ci < 0 {
			return fmt.Errorf("group: removal of unknown client %s", id)
		}
	}
	admitted := make(map[NodeID]bool, len(u.Admit))
	for _, m := range u.Admit {
		pub, err := g.Decode(m.PubKey)
		if err != nil {
			return fmt.Errorf("group: admitted key: %w", err)
		}
		id := IDFromKey(g, pub)
		if admitted[id] {
			return fmt.Errorf("group: duplicate admission of %s", id)
		}
		admitted[id] = true
		if removed[id] {
			return fmt.Errorf("group: %s both admitted and removed", id)
		}
		if d.ServerIndex(id) >= 0 {
			return fmt.Errorf("group: cannot admit server %s as a client", id)
		}
		if d.ClientIndex(id) < 0 {
			// Brand-new member: it needs a pseudonym key to seed a slot.
			if len(m.PseuKey) == 0 {
				return fmt.Errorf("group: new member %s lacks a pseudonym key", id)
			}
			if _, err := g.Decode(m.PseuKey); err != nil {
				return fmt.Errorf("group: new member %s pseudonym key: %w", id, err)
			}
		}
	}
	return d.VerifyRosterUpdateSigs(u)
}

// VerifyRosterUpdateSigs checks only the certification signatures —
// one valid Schnorr signature per server over SignedBytes — without
// the version/digest chain. Mid-session joiners use it directly: they
// cannot replay the intermediate update chain, but the (static) server
// set still authenticates the transition that admits them.
func (d *Definition) VerifyRosterUpdateSigs(u *RosterUpdate) error {
	if len(u.Sigs) != len(d.Servers) {
		return fmt.Errorf("group: roster update has %d signatures, want %d", len(u.Sigs), len(d.Servers))
	}
	g := d.Group()
	signed := u.SignedBytes(d.GroupID())
	for j, srv := range d.Servers {
		sig, err := crypto.DecodeSignature(g, u.Sigs[j])
		if err != nil {
			return fmt.Errorf("group: roster sig %d: %w", j, err)
		}
		if err := crypto.Verify(g, srv.PubKey, RosterSignContext, signed, sig); err != nil {
			return fmt.Errorf("group: roster sig %d: %w", j, err)
		}
	}
	return nil
}

// ApplyRosterUpdate verifies u and returns the evolved definition at
// u.Version. The receiver is not mutated — engine replicas swap in the
// returned definition at the epoch boundary. Client indices are stable:
// removals mark members expelled in place, admissions of new members
// append, re-admissions clear the expelled flag.
func (d *Definition) ApplyRosterUpdate(u *RosterUpdate) (*Definition, error) {
	if err := d.VerifyRosterUpdate(u); err != nil {
		return nil, err
	}
	nd := *d
	nd.Clients = append([]Member(nil), d.Clients...)
	nd.Version = u.Version
	nd.genesisID, nd.genesisSet = d.GroupID(), true
	nd.rosterDigest, nd.rosterSet = u.Digest(nd.genesisID), true
	for _, id := range u.Remove {
		nd.Clients[nd.ClientIndex(id)].Expelled = true
	}
	g := d.Group()
	for _, m := range u.Admit {
		pub, err := g.Decode(m.PubKey)
		if err != nil {
			return nil, err
		}
		id := IDFromKey(g, pub)
		if ci := nd.ClientIndex(id); ci >= 0 {
			nd.Clients[ci].Expelled = false
		} else {
			nd.Clients = append(nd.Clients, Member{ID: id, PubKey: pub})
		}
	}
	return &nd, nil
}

// RebuildDefinition reconstructs a roster-evolved definition from a
// trusted snapshot: the genesis definition (obtained out of band) plus
// the full current client key list, expulsion flags, version, and
// roster digest — the mid-session joiner's path, which cannot replay
// the intermediate update chain. The genesis clients must survive as a
// prefix (indices are stable across churn), which guards against a
// snapshot for a different group.
func RebuildDefinition(genesis *Definition, version uint64, digest [32]byte, clientKeys [][]byte, expelled []bool) (*Definition, error) {
	if len(clientKeys) != len(expelled) {
		return nil, errors.New("group: snapshot shape mismatch")
	}
	if len(clientKeys) < len(genesis.Clients) {
		return nil, errors.New("group: snapshot roster smaller than genesis")
	}
	g := genesis.Group()
	nd := *genesis
	nd.Clients = make([]Member, len(clientKeys))
	for i, raw := range clientKeys {
		pub, err := g.Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("group: snapshot client %d key: %w", i, err)
		}
		nd.Clients[i] = Member{ID: IDFromKey(g, pub), PubKey: pub, Expelled: expelled[i]}
	}
	for i, m := range genesis.Clients {
		if nd.Clients[i].ID != m.ID {
			return nil, fmt.Errorf("group: snapshot client %d does not match genesis", i)
		}
	}
	nd.Version = version
	nd.genesisID, nd.genesisSet = genesis.GroupID(), true
	nd.rosterDigest, nd.rosterSet = digest, true
	return &nd, nil
}

// ActiveClients counts clients not currently expelled from the roster.
func (d *Definition) ActiveClients() int {
	n := 0
	for _, m := range d.Clients {
		if !m.Expelled {
			n++
		}
	}
	return n
}
