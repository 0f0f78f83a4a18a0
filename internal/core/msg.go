package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"dissent/internal/beacon"
	"dissent/internal/crypto"
	"dissent/internal/group"
	"dissent/internal/wire"
)

// MsgType enumerates the protocol's wire messages.
type MsgType byte

// Message types. Setup messages establish the shuffled slot schedule;
// round messages implement Algorithms 1–2; blame messages implement
// the accusation protocol of §3.9.
const (
	// MsgPseudonymSubmit: client → upstream server; onion-encrypted
	// pseudonym key for the scheduling shuffle (a ShuffleSubmit).
	MsgPseudonymSubmit MsgType = iota + 1
	// MsgPseudonymList: server → all servers; collected submissions (a
	// ShuffleList).
	MsgPseudonymList
	// MsgShuffleStep: server j → all servers; its shuffle step output.
	MsgShuffleStep
	// MsgSchedule: server → its clients; final slot key list + server
	// signatures.
	MsgSchedule
	// MsgClientSubmit: client → upstream server; round ciphertext.
	MsgClientSubmit
	// MsgInventory: server → all servers; clients heard this round and,
	// in steady state, the server's commitment riding along.
	MsgInventory
	// MsgCommit: server → all servers; hash commit of its ciphertext
	// and its round-certificate nonce.
	MsgCommit
	// MsgShare: server → all servers; its ciphertext and nonce.
	MsgShare
	// MsgCertify: server → all servers; its partial response to the
	// collective signature over the cleartext.
	MsgCertify
	// MsgOutput: server → its clients; certified round output.
	MsgOutput
	// MsgBlameStart: server → its clients; an accusation shuffle opens.
	MsgBlameStart
	// MsgBlameSubmit: client → upstream server; encrypted accusation
	// (or null message) for the accusation shuffle (a ShuffleSubmit).
	MsgBlameSubmit
	// MsgBlameList: server → all servers; collected blame submissions
	// (a ShuffleList).
	MsgBlameList
	// MsgBlameStep: server j → all servers; blame shuffle step output.
	MsgBlameStep
	// MsgTraceBits: server → all servers; per-client PRNG bits at the
	// witness position, for disruptor tracing.
	MsgTraceBits
	// MsgRebuttalRequest: upstream server → flagged client.
	MsgRebuttalRequest
	// MsgRebuttal: client → all servers (via upstream); reveals the
	// pairwise secret shared with an equivocating server.
	MsgRebuttal
	// MsgScheduleCert: server → all servers; signature certifying the
	// scheduling shuffle's output key list.
	MsgScheduleCert
	// MsgBlameDone: server → its clients; the accusation session ended
	// (with or without a verdict) and DC-net rounds resume.
	MsgBlameDone
	// MsgJoinRequest: prospective member (or expelled client seeking
	// re-admission) → a server; asks to be proposed for admission at
	// the next epoch boundary. New members sign with the key embedded
	// in the request body (self-certifying, like NodeIDs).
	MsgJoinRequest
	// MsgRosterPropose: server → all servers; its pending admissions and
	// removals for the upcoming roster version.
	MsgRosterPropose
	// MsgRosterCert: server → all servers; its signature certifying the
	// canonical roster update assembled from all proposals.
	MsgRosterCert
	// MsgRosterUpdate: server → its clients; the fully certified roster
	// update to apply before the next round.
	MsgRosterUpdate
	// MsgSnapshot: server → one member; a JoinWelcome body — a certified
	// roster update as anchor plus the session state (roster, slot keys,
	// replica image, beacon head). Its two uses are one catch-up answer
	// (Server.catchUp): the welcome that bootstraps a newly admitted
	// member, and the re-sync of an established member whose replica
	// diverged or fell behind what the server can replay.
	MsgSnapshot
)

var msgTypeNames = map[MsgType]string{
	MsgPseudonymSubmit: "pseudonym-submit",
	MsgPseudonymList:   "pseudonym-list",
	MsgShuffleStep:     "shuffle-step",
	MsgSchedule:        "schedule",
	MsgClientSubmit:    "client-submit",
	MsgInventory:       "inventory",
	MsgCommit:          "commit",
	MsgShare:           "share",
	MsgCertify:         "certify",
	MsgOutput:          "output",
	MsgBlameStart:      "blame-start",
	MsgBlameSubmit:     "blame-submit",
	MsgBlameList:       "blame-list",
	MsgBlameStep:       "blame-step",
	MsgTraceBits:       "trace-bits",
	MsgRebuttalRequest: "rebuttal-request",
	MsgRebuttal:        "rebuttal",
	MsgScheduleCert:    "schedule-cert",
	MsgBlameDone:       "blame-done",
	MsgJoinRequest:     "join-request",
	MsgRosterPropose:   "roster-propose",
	MsgRosterCert:      "roster-cert",
	MsgRosterUpdate:    "roster-update",
	MsgSnapshot:        "snapshot",
}

func (t MsgType) String() string {
	if s, ok := msgTypeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("msgtype(%d)", byte(t))
}

// Message is one signed protocol message. Body is the canonical
// payload encoding; Sig covers (GroupID, Type, Round, From, Body).
type Message struct {
	From  group.NodeID
	Type  MsgType
	Round uint64
	Body  []byte
	Sig   []byte
}

// Signature contexts. The signer and every verifier of each use the one
// constant; two also name their digest's hash domain. The round
// certificate's is beacon.CertContext: the certificate is the beacon
// entry, which external verifiers check too.
const (
	msgContext        = "dissent/msg"        // an envelope, and its digest
	scheduleContext   = "dissent/schedule"   // the schedule certificate
	accusationContext = "dissent/accusation" // an accusation, and its digest
)

// msgHeaderLen is the fixed envelope header: type, round, sender.
const msgHeaderLen = 1 + 8 + len(group.NodeID{})

// putHeader writes m's envelope header into b[:msgHeaderLen].
func (m *Message) putHeader(b []byte) {
	b[0] = byte(m.Type)
	binary.BigEndian.PutUint64(b[1:9], m.Round)
	copy(b[9:msgHeaderLen], m.From[:])
}

// digest is what a message's signature covers: the group ID, the
// envelope header and the body, each length-prefixed by crypto.Hash (so
// the encoding stays injective) and fed to SHA-256 as parts. Signing a
// digest rather than the concatenation means no signing or verifying
// path copies the body, and a node that needs the same value twice —
// a share's digest is also its sender's commitment — hashes once.
func (m *Message) digest(groupID [32]byte) []byte {
	var hdr [msgHeaderLen]byte
	m.putHeader(hdr[:])
	return crypto.Hash(msgContext, groupID[:], hdr[:], m.Body)
}

// Fields lays out the envelope: the header the signature covers, then
// the body and the signature.
func (m *Message) Fields(c *wire.Codec) {
	c.U8((*byte)(&m.Type))
	c.U64(&m.Round)
	c.Fixed(m.From[:])
	c.Bytes(&m.Body)
	c.Bytes(&m.Sig)
}

// EncodedLen is the exact length of m's encoding.
func (m *Message) EncodedLen() int { return wire.Size(m) }

// AppendMessage appends m's encoding to dst. With EncodedLen bytes of
// spare capacity it does not allocate — how the transport writes a
// frame's length word, session tag and message into one buffer.
func AppendMessage(dst []byte, m *Message) []byte { return wire.Append(dst, m) }

// EncodeMessage serializes a complete message for transport framing or
// for inclusion as evidence in tracing.
func EncodeMessage(m *Message) []byte { return wire.Encode(m) }

// DecodeMessage parses a message serialized by EncodeMessage. An
// absent signature decodes as nil.
func DecodeMessage(data []byte) (*Message, error) {
	m, err := decode[Message](data)
	if err == nil && len(m.Sig) == 0 {
		m.Sig = nil
	}
	return m, err
}

// decode parses b into a new T by T's field list, then runs T's
// decode-time check, if it has one.
func decode[T any, P interface {
	*T
	wire.Payload
}](b []byte) (*T, error) {
	p := P(new(T))
	if err := wire.Decode(b, p); err != nil {
		return nil, err
	}
	if c, ok := any(p).(interface{ check() error }); ok {
		if err := c.check(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// --- Payloads: each states its wire layout once, in Fields ------------

// ShuffleSubmit carries a client's onion-encrypted input to a shuffle
// session: its pseudonym key for the scheduling shuffle, its accusation
// (or a null message) for an accusation shuffle. Session is 0 for
// scheduling, as in ShuffleStep.
type ShuffleSubmit struct {
	Session int32
	CT      []byte // encoded ElGamal ciphertext vector, session width
}

// Fields lays out the payload.
func (p *ShuffleSubmit) Fields(c *wire.Codec) {
	c.I32(&p.Session)
	c.Bytes(&p.CT)
}

// ShuffleList carries the submissions a server collected for a shuffle
// session, keyed by client index in the group definition.
type ShuffleList struct {
	Session int32
	Clients []int32
	CTs     [][]byte
}

// Fields lays out the payload.
func (p *ShuffleList) Fields(c *wire.Codec) {
	c.I32(&p.Session)
	c.Int32s(&p.Clients)
	c.ByteSlices(&p.CTs)
}

// check holds the list to one ciphertext per client.
func (p *ShuffleList) check() error {
	if len(p.Clients) != len(p.CTs) {
		return fmt.Errorf("core: shuffle list shape mismatch")
	}
	return nil
}

// ShuffleStep carries one server's shuffle step for stage (its server
// index) of a shuffle session; Session is 0 for scheduling.
type ShuffleStep struct {
	Session int32
	Stage   int32
	Data    []byte // encoded shuffle.StepOutput
}

// Fields lays out the payload.
func (p *ShuffleStep) Fields(c *wire.Codec) {
	c.I32(&p.Session)
	c.I32(&p.Stage)
	c.Bytes(&p.Data)
}

// Schedule carries the final slot schedule: pseudonym keys in slot
// order plus every server's signature over the key list.
type Schedule struct {
	Keys [][]byte // encoded pseudonym public keys, slot order
	Sigs [][]byte // per server index, Schnorr over scheduleSignedBytes
}

// Fields lays out the payload.
func (p *Schedule) Fields(c *wire.Codec) {
	c.ByteSlices(&p.Keys)
	c.ByteSlices(&p.Sigs)
}

// scheduleSignedBytes is the byte string servers sign to certify a
// schedule.
func scheduleSignedBytes(groupID [32]byte, keys [][]byte) []byte {
	return crypto.Hash("dissent/schedule-cert", wire.Append(groupID[:], (*byteList)(&keys)))
}

// byteList is a bare list of byte strings, the form in which a
// schedule certificate's keys and signatures are hashed.
type byteList [][]byte

func (l *byteList) Fields(c *wire.Codec) { c.ByteSlices((*[][]byte)(l)) }

// scheduleCertDigest condenses a complete schedule certificate — the
// signed key list plus every server's signature in index order — into
// the session artifact the beacon genesis binds to (§3.2's
// self-certifying style: the digest authenticates one session's
// certified schedule and nothing else).
func scheduleCertDigest(groupID [32]byte, keys, sigs [][]byte) [32]byte {
	var d [32]byte
	copy(d[:], crypto.Hash("dissent/schedule-cert-digest",
		wire.Append(scheduleSignedBytes(groupID, keys), (*byteList)(&sigs))))
	return d
}

// VerifyScheduleCert checks a schedule certificate fetched out of band
// (e.g. from a server's /beacon/schedule endpoint) against the group
// definition: one signature per server, each a valid Schnorr signature
// over the key list. It returns the certificate digest that, fed to
// beacon.SessionGenesis, yields the session's beacon genesis — the
// path an external verifier uses to reject archived previous-session
// chains replayed as live.
func VerifyScheduleCert(def *group.Definition, keys, sigs [][]byte) ([32]byte, error) {
	if len(sigs) != len(def.Servers) {
		return [32]byte{}, fmt.Errorf("core: schedule certificate has %d signatures, want %d",
			len(sigs), len(def.Servers))
	}
	grpID := def.GroupID()
	keyGrp := def.Group()
	signed := scheduleSignedBytes(grpID, keys)
	for j, srv := range def.Servers {
		sig, err := crypto.DecodeSignature(keyGrp, sigs[j])
		if err != nil {
			return [32]byte{}, fmt.Errorf("core: schedule cert %d: %w", j, err)
		}
		if err := crypto.Verify(keyGrp, srv.PubKey, scheduleContext, signed, sig); err != nil {
			return [32]byte{}, fmt.Errorf("core: schedule cert %d: %w", j, err)
		}
	}
	return scheduleCertDigest(grpID, keys, sigs), nil
}

// ClientSubmit carries a client's DC-net ciphertext for a round.
type ClientSubmit struct {
	CT []byte
}

// Fields lays out the payload.
func (p *ClientSubmit) Fields(c *wire.Codec) {
	c.Bytes(&p.CT)
}

// DecodeClientSubmit parses a ClientSubmit payload.
func DecodeClientSubmit(b []byte) (*ClientSubmit, error) { return decode[ClientSubmit](b) }

// Inventory is a server's list of client indices heard this round, per
// α-threshold attempt (§3.7: servers may re-open the window and retry).
// Hash, when present, is the commitment of the Commit the server would
// send one hop later, computed at window close on the prediction that
// the round's included set repeats the previous certified round's
// (server.go: closeWindow, speculationHolds); an inventory without it
// simply announces the explicit commit exchange.
type Inventory struct {
	Attempt int32
	Clients []int32
	Hash    []byte // speculative commitment; empty when not speculating
}

// commitmentLen is the length of the commitment an Inventory may carry:
// a crypto.Hash output.
const commitmentLen = sha256.Size

// Fields lays out the payload.
func (p *Inventory) Fields(c *wire.Codec) {
	c.I32(&p.Attempt)
	c.Int32s(&p.Clients)
	c.Bytes(&p.Hash)
}

// check holds the commitment to either absent (zero length) or exactly
// one digest.
func (p *Inventory) check() error {
	if h := len(p.Hash); h != 0 && h != commitmentLen {
		return fmt.Errorf("core: inventory commitment length %d, want 0 or %d", h, commitmentLen)
	}
	return nil
}

// Commit is a server's hash commitment to its ciphertext (Algorithm 2
// step 3), preventing dishonest servers from adapting their share to
// others'. Hash is the message digest (Message.digest) of the exact
// MsgShare the server will reveal, so it also covers the server's
// round-certificate nonce Rᵢ and neither can be chosen after seeing a
// peer's. That nonce commitment is also what makes the round's beacon
// entry — its certificate — unbiasable (internal/beacon).
type Commit struct {
	Attempt int32
	Hash    []byte
}

// Fields lays out the payload.
func (p *Commit) Fields(c *wire.Codec) {
	c.I32(&p.Attempt)
	c.Bytes(&p.Hash)
}

// Share is a server's ciphertext, revealed after all commits. Nonce
// reveals the committed round-certificate nonce Rᵢ.
type Share struct {
	Attempt int32
	CT      []byte
	Nonce   []byte // encoded group element
}

// Fields lays out the payload.
func (p *Share) Fields(c *wire.Codec) {
	c.I32(&p.Attempt)
	c.Bytes(&p.CT)
	c.Bytes(&p.Nonce)
}

// Certify is a server's contribution to the round certificate. Sig is
// the server's partial response zᵢ (one scalar) to the collective
// signature over the assembled cleartext; only for a failed round, and
// for the schedule certificate, is it a full signature of its own.
type Certify struct {
	Attempt int32
	Sig     []byte
}

// Fields lays out the payload.
func (p *Certify) Fields(c *wire.Codec) {
	c.I32(&p.Attempt)
	c.Bytes(&p.Sig)
}

// RoundOutput carries the certified round result to clients. Sigs is
// the round certificate: one collective signature under the servers'
// aggregate key over beacon.CertDigest, which exists only if every
// server responded; with the beacon on it is also the round's beacon
// entry, which every member rebuilds from it. Failed indicates a
// hard-timeout round whose ciphertexts were discarded; its Count resets
// the participation baseline (§3.7). Such a round skips the commit and
// share exchanges the collective signature rides, so its Sigs hold one
// signature per server index instead, and it has no beacon entry.
type RoundOutput struct {
	Cleartext []byte
	Sigs      [][]byte
	Count     int32
	Failed    bool
}

// Fields lays out the payload.
func (p *RoundOutput) Fields(c *wire.Codec) {
	c.Bytes(&p.Cleartext)
	c.ByteSlices(&p.Sigs)
	c.I32(&p.Count)
	c.Bool(&p.Failed)
}

// DecodeRoundOutput parses a RoundOutput payload.
func DecodeRoundOutput(b []byte) (*RoundOutput, error) { return decode[RoundOutput](b) }

// verifyRoundCert checks a round output's certificate over signed, the
// round's certificate digest: exactly one signature under aggKey (the
// aggregate of all of def's server keys), or for a failed round exactly
// one signature per server.
func verifyRoundCert(def *group.Definition, aggKey crypto.Element, round uint64, ro *RoundOutput, signed []byte) error {
	keys := []crypto.Element{aggKey}
	if ro.Failed {
		keys = def.ServerPubKeys()
	}
	if len(ro.Sigs) != len(keys) {
		return fmt.Errorf("core: round %d output carries %d certificate signatures, want %d",
			round, len(ro.Sigs), len(keys))
	}
	g := def.Group()
	for j, key := range keys {
		sig, err := crypto.DecodeSignature(g, ro.Sigs[j])
		if err != nil {
			return fmt.Errorf("core: round %d cert %d: %w", round, j, err)
		}
		if err := crypto.Verify(g, key, beacon.CertContext, signed, sig); err != nil {
			return fmt.Errorf("core: round %d cert %d: %w", round, j, err)
		}
	}
	return nil
}

// BlameStart announces an accusation shuffle session to clients.
type BlameStart struct {
	Session int32
}

// Fields lays out the payload.
func (p *BlameStart) Fields(c *wire.Codec) {
	c.I32(&p.Session)
}

// TraceBits carries one server's contribution to disruptor tracing
// (§3.9): for each client included in the accused round, the PRNG bit
// s_ij[k] it shares with that client at the witness position; its own
// server-ciphertext bit; and for its direct clients, the client
// ciphertext bit it received.
type TraceBits struct {
	Session    int32
	ClientBits []byte  // s_ij[k] for each included client, in inventory order
	ServerBit  byte    // s_j[k] as derivable from its published share
	Direct     []int32 // client indices whose ciphertexts this server received
	DirectBits []byte  // c_i[k] for each of Direct
	// Evidence holds the original signed ClientSubmit messages for
	// each entry of Direct (encoded with EncodeMessage), letting every
	// server verify the published ciphertext bits itself.
	Evidence [][]byte
}

// Fields lays out the payload.
func (p *TraceBits) Fields(c *wire.Codec) {
	c.I32(&p.Session)
	c.Bytes(&p.ClientBits)
	c.U8(&p.ServerBit)
	c.Int32s(&p.Direct)
	c.Bytes(&p.DirectBits)
	c.ByteSlices(&p.Evidence)
}

// RebuttalRequest asks a flagged client to explain a ciphertext-bit
// mismatch by identifying the equivocating server.
type RebuttalRequest struct {
	Session int32
	// AccRound and AccBit locate the witness bit: the disrupted round
	// and the global bit index within its cleartext vector.
	AccRound uint64
	AccBit   uint32
	// ServerBits are the s_ij[k] bits each server claimed for this
	// client, in server-index order.
	ServerBits []byte
}

// Fields lays out the payload.
func (p *RebuttalRequest) Fields(c *wire.Codec) {
	c.I32(&p.Session)
	c.U64(&p.AccRound)
	c.U32(&p.AccBit)
	c.Bytes(&p.ServerBits)
}

// Rebuttal reveals the pairwise DH point a client shares with the
// server it says equivocated, with a DLEQ proof that the point matches
// both public keys. Every server can then recompute s_ij[k] itself.
type Rebuttal struct {
	Session   int32
	ServerIdx int32
	Secret    []byte // encoded DH point
	ProofC    []byte
	ProofZ    []byte
}

// Fields lays out the payload.
func (p *Rebuttal) Fields(c *wire.Codec) {
	c.I32(&p.Session)
	c.I32(&p.ServerIdx)
	c.Bytes(&p.Secret)
	c.Bytes(&p.ProofC)
	c.Bytes(&p.ProofZ)
}

// BlameDone reports an accusation session's outcome to clients. Round
// in the enclosing message is the next DC-net round to submit for.
type BlameDone struct {
	Session int32
	// Verdict is 0 (inconclusive), 1 (client expelled), 2 (server
	// exposed).
	Verdict byte
	Culprit group.NodeID
}

// Fields lays out the payload.
func (p *BlameDone) Fields(c *wire.Codec) {
	c.I32(&p.Session)
	c.U8(&p.Verdict)
	c.Fixed(p.Culprit[:])
}
