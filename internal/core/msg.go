package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"dissent/internal/crypto"
	"dissent/internal/group"
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
	return crypto.Hash("dissent/msg", groupID[:], hdr[:], m.Body)
}

// WireSize returns the message's approximate on-the-wire size in
// bytes, used by the network simulator for bandwidth accounting:
// header (type, round, from, body length) + body + signature.
func (m *Message) WireSize() int {
	n := 1 + 8 + 8 + 4 + len(m.Body)
	if m.Sig != nil {
		n += len(m.Sig)
	} else {
		n += 64 // unsigned simulation mode still accounts a signature
	}
	return n
}

// EncodedLen is the exact length of m's encoding.
func (m *Message) EncodedLen() int {
	return msgHeaderLen + 4 + len(m.Body) + 4 + len(m.Sig)
}

// AppendMessage appends m's encoding to dst. With EncodedLen bytes of
// spare capacity it does not allocate — how the transport writes a
// frame's length word, session tag and message into one buffer.
func AppendMessage(dst []byte, m *Message) []byte {
	var hdr [msgHeaderLen]byte
	m.putHeader(hdr[:])
	e := encBuf{B: append(dst, hdr[:]...)}
	e.Bytes(m.Body)
	e.Bytes(m.Sig)
	return e.B
}

// EncodeMessage serializes a complete message for transport framing or
// for inclusion as evidence in tracing.
func EncodeMessage(m *Message) []byte {
	return AppendMessage(make([]byte, 0, m.EncodedLen()), m)
}

// DecodeMessage parses a message serialized by EncodeMessage.
func DecodeMessage(data []byte) (*Message, error) {
	d := decBuf{B: data}
	t, err := d.U8()
	if err != nil {
		return nil, err
	}
	round, err := d.U64()
	if err != nil {
		return nil, err
	}
	if len(d.B) < 8 {
		return nil, errTruncated
	}
	var from group.NodeID
	copy(from[:], d.B[:8])
	d.B = d.B[8:]
	body, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	sig, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	m := &Message{From: from, Type: MsgType(t), Round: round, Body: body}
	if len(sig) > 0 {
		m.Sig = sig
	}
	return m, nil
}

// --- Payload codecs -------------------------------------------------

// ShuffleSubmit carries a client's onion-encrypted input to a shuffle
// session: its pseudonym key for the scheduling shuffle, its accusation
// (or a null message) for an accusation shuffle. Session is 0 for
// scheduling, as in ShuffleStep.
type ShuffleSubmit struct {
	Session int32
	CT      []byte // encoded ElGamal ciphertext vector, session width
}

// Encode serializes the payload.
func (p *ShuffleSubmit) Encode() []byte {
	var e encBuf
	e.U32(uint32(p.Session))
	e.Bytes(p.CT)
	return e.B
}

// DecodeShuffleSubmit parses a ShuffleSubmit payload.
func DecodeShuffleSubmit(b []byte) (*ShuffleSubmit, error) {
	d := decBuf{B: b}
	s, err := d.U32()
	if err != nil {
		return nil, err
	}
	ct, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return &ShuffleSubmit{Session: int32(s), CT: ct}, nil
}

// ShuffleList carries the submissions a server collected for a shuffle
// session, keyed by client index in the group definition.
type ShuffleList struct {
	Session int32
	Clients []int32
	CTs     [][]byte
}

// Encode serializes the payload.
func (p *ShuffleList) Encode() []byte {
	var e encBuf
	e.U32(uint32(p.Session))
	e.Int32s(p.Clients)
	e.ByteSlices(p.CTs)
	return e.B
}

// DecodeShuffleList parses a ShuffleList payload.
func DecodeShuffleList(b []byte) (*ShuffleList, error) {
	d := decBuf{B: b}
	s, err := d.U32()
	if err != nil {
		return nil, err
	}
	cs, err := d.Int32s()
	if err != nil {
		return nil, err
	}
	cts, err := d.ByteSlices()
	if err != nil {
		return nil, err
	}
	if len(cs) != len(cts) {
		return nil, fmt.Errorf("core: shuffle list shape mismatch")
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return &ShuffleList{Session: int32(s), Clients: cs, CTs: cts}, nil
}

// ShuffleStep carries one server's shuffle step for stage (its server
// index) of a shuffle session; Session is 0 for scheduling.
type ShuffleStep struct {
	Session int32
	Stage   int32
	Data    []byte // encoded shuffle.StepOutput
}

// Encode serializes the payload.
func (p *ShuffleStep) Encode() []byte {
	var e encBuf
	e.U32(uint32(p.Session))
	e.U32(uint32(p.Stage))
	e.Bytes(p.Data)
	return e.B
}

// DecodeShuffleStep parses a ShuffleStep payload.
func DecodeShuffleStep(b []byte) (*ShuffleStep, error) {
	d := decBuf{B: b}
	session, err := d.U32()
	if err != nil {
		return nil, err
	}
	stage, err := d.U32()
	if err != nil {
		return nil, err
	}
	data, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return &ShuffleStep{Session: int32(session), Stage: int32(stage), Data: data}, nil
}

// Schedule carries the final slot schedule: pseudonym keys in slot
// order plus every server's signature over the key list.
type Schedule struct {
	Keys [][]byte // encoded pseudonym public keys, slot order
	Sigs [][]byte // per server index, Schnorr over scheduleSignedBytes
}

// Encode serializes the payload.
func (p *Schedule) Encode() []byte {
	var e encBuf
	e.ByteSlices(p.Keys)
	e.ByteSlices(p.Sigs)
	return e.B
}

// DecodeSchedule parses a Schedule payload.
func DecodeSchedule(b []byte) (*Schedule, error) {
	d := decBuf{B: b}
	keys, err := d.ByteSlices()
	if err != nil {
		return nil, err
	}
	sigs, err := d.ByteSlices()
	if err != nil {
		return nil, err
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return &Schedule{Keys: keys, Sigs: sigs}, nil
}

// scheduleSignedBytes is the byte string servers sign to certify a
// schedule.
func scheduleSignedBytes(groupID [32]byte, keys [][]byte) []byte {
	var e encBuf
	e.B = append(e.B, groupID[:]...)
	e.ByteSlices(keys)
	return crypto.Hash("dissent/schedule-cert", e.B)
}

// scheduleCertDigest condenses a complete schedule certificate — the
// signed key list plus every server's signature in index order — into
// the session artifact the beacon genesis binds to (§3.2's
// self-certifying style: the digest authenticates one session's
// certified schedule and nothing else).
func scheduleCertDigest(groupID [32]byte, keys, sigs [][]byte) [32]byte {
	var e encBuf
	e.B = append(e.B, scheduleSignedBytes(groupID, keys)...)
	e.ByteSlices(sigs)
	var d [32]byte
	copy(d[:], crypto.Hash("dissent/schedule-cert-digest", e.B))
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
		if err := crypto.Verify(keyGrp, srv.PubKey, "dissent/schedule", signed, sig); err != nil {
			return [32]byte{}, fmt.Errorf("core: schedule cert %d: %w", j, err)
		}
	}
	return scheduleCertDigest(grpID, keys, sigs), nil
}

// ClientSubmit carries a client's DC-net ciphertext for a round.
type ClientSubmit struct {
	CT []byte
}

// Encode serializes the payload.
func (p *ClientSubmit) Encode() []byte {
	var e encBuf
	e.Grow(4 + len(p.CT))
	e.Bytes(p.CT)
	return e.B
}

// DecodeClientSubmit parses a ClientSubmit payload.
func DecodeClientSubmit(b []byte) (*ClientSubmit, error) {
	d := decBuf{B: b}
	ct, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return &ClientSubmit{CT: ct}, nil
}

// Inventory is a server's list of client indices heard this round, per
// α-threshold attempt (§3.7: servers may re-open the window and retry).
// Hash and BeaconCommit, when present, are the fields of the Commit the
// server would send one hop later, computed at window close on the
// prediction that the round's included set repeats the previous
// certified round's (server.go: closeWindow, speculationHolds); an
// inventory without them simply announces the explicit commit exchange.
type Inventory struct {
	Attempt      int32
	Clients      []int32
	Hash         []byte // speculative commitment; empty when not speculating
	BeaconCommit []byte // H(beacon share); only beside Hash, and only with the beacon on
}

// commitmentLen is the length of both commitments an Inventory may
// carry: each is a crypto.Hash output.
const commitmentLen = sha256.Size

// Encode serializes the payload.
func (p *Inventory) Encode() []byte {
	var e encBuf
	e.U32(uint32(p.Attempt))
	e.Int32s(p.Clients)
	e.Bytes(p.Hash)
	e.Bytes(p.BeaconCommit)
	return e.B
}

// DecodeInventory parses an Inventory payload. Each commitment field is
// either absent (zero length) or exactly one digest, and a beacon
// commitment never stands alone; the fields alias the input, so a
// hostile length word cannot drive an allocation.
func DecodeInventory(b []byte) (*Inventory, error) {
	d := decBuf{B: b}
	at, err := d.U32()
	if err != nil {
		return nil, err
	}
	cs, err := d.Int32s()
	if err != nil {
		return nil, err
	}
	h, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	bc, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	if (len(h) != 0 && len(h) != commitmentLen) || (len(bc) != 0 && (len(bc) != commitmentLen || len(h) == 0)) {
		return nil, fmt.Errorf("core: inventory commitment lengths %d/%d, want 0 or %d each and no beacon commitment alone",
			len(h), len(bc), commitmentLen)
	}
	return &Inventory{Attempt: int32(at), Clients: cs, Hash: h, BeaconCommit: bc}, nil
}

// Commit is a server's hash commitment to its ciphertext (Algorithm 2
// step 3), preventing dishonest servers from adapting their share to
// others'. Hash is the message digest (Message.digest) of the exact
// MsgShare the server will reveal, so it also covers the server's
// round-certificate nonce Rᵢ and neither can be chosen after seeing a
// peer's. When the randomness beacon is enabled, the same message
// carries the server's binding commitment to its beacon share, so the
// beacon's commit phase rides the round's existing commit exchange.
type Commit struct {
	Attempt      int32
	Hash         []byte
	BeaconCommit []byte // H(beacon share); empty when the beacon is off
}

// Encode serializes the payload.
func (p *Commit) Encode() []byte {
	var e encBuf
	e.U32(uint32(p.Attempt))
	e.Bytes(p.Hash)
	e.Bytes(p.BeaconCommit)
	return e.B
}

// DecodeCommit parses a Commit payload.
func DecodeCommit(b []byte) (*Commit, error) {
	d := decBuf{B: b}
	at, err := d.U32()
	if err != nil {
		return nil, err
	}
	h, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	bc, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return &Commit{Attempt: int32(at), Hash: h, BeaconCommit: bc}, nil
}

// Share is a server's ciphertext, revealed after all commits. It also
// reveals the server's beacon share (a Schnorr signature over the
// previous beacon value and round; see internal/beacon), completing
// the beacon's commit–reveal exchange. Nonce reveals the committed
// round-certificate nonce Rᵢ.
type Share struct {
	Attempt     int32
	CT          []byte
	BeaconShare []byte // empty when the beacon is off
	Nonce       []byte // encoded group element
}

// Encode serializes the payload.
func (p *Share) Encode() []byte {
	var e encBuf
	e.Grow(4 + 4 + len(p.CT) + 4 + len(p.BeaconShare) + 4 + len(p.Nonce))
	e.U32(uint32(p.Attempt))
	e.Bytes(p.CT)
	e.Bytes(p.BeaconShare)
	e.Bytes(p.Nonce)
	return e.B
}

// DecodeShare parses a Share payload.
func DecodeShare(b []byte) (*Share, error) {
	d := decBuf{B: b}
	at, err := d.U32()
	if err != nil {
		return nil, err
	}
	ct, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	bs, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	nonce, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return &Share{Attempt: int32(at), CT: ct, BeaconShare: bs, Nonce: nonce}, nil
}

// Certify is a server's contribution to the round certificate. Sig is
// the server's partial response zᵢ (one scalar) to the collective
// signature over the assembled cleartext; only for a failed round, and
// for the schedule certificate, is it a full signature of its own.
type Certify struct {
	Attempt int32
	Sig     []byte
}

// Encode serializes the payload.
func (p *Certify) Encode() []byte {
	var e encBuf
	e.U32(uint32(p.Attempt))
	e.Bytes(p.Sig)
	return e.B
}

// DecodeCertify parses a Certify payload.
func DecodeCertify(b []byte) (*Certify, error) {
	d := decBuf{B: b}
	at, err := d.U32()
	if err != nil {
		return nil, err
	}
	sig, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return &Certify{Attempt: int32(at), Sig: sig}, nil
}

// cleartextSignedBytes is the digest the round certificate covers, its
// parts streamed into the hash (no copy of the cleartext is made).
// beaconValue is the round's chained beacon output (nil for failed
// rounds or when the beacon is off), so certification also pins the
// beacon chain: a server cannot certify the round yet equivocate about
// its randomness.
func cleartextSignedBytes(groupID [32]byte, round uint64, count int, cleartext, beaconValue []byte) []byte {
	var hdr [8 + 4]byte
	binary.BigEndian.PutUint64(hdr[:8], round)
	binary.BigEndian.PutUint32(hdr[8:], uint32(count))
	return crypto.Hash("dissent/cleartext-cert", groupID[:], hdr[:], cleartext, beaconValue)
}

// RoundOutput carries the certified round result to clients. Sigs is
// the round certificate: one collective signature under the servers'
// aggregate key, which exists only if every server responded. Failed
// indicates a hard-timeout round whose ciphertexts were discarded; its
// Count resets the participation baseline (§3.7). Such a round skips
// the commit and share exchanges the collective signature rides, so
// its Sigs hold one signature per server index instead. Beacon holds
// every server's beacon share for this round (in server-index order)
// so clients extend and verify their beacon chain replica; it is empty
// for failed rounds and when the beacon is off.
type RoundOutput struct {
	Cleartext []byte
	Sigs      [][]byte
	Count     int32
	Failed    bool
	Beacon    [][]byte // per server index
}

// Encode serializes the payload.
func (p *RoundOutput) Encode() []byte {
	var e encBuf
	e.Grow(4 + len(p.Cleartext) + byteSlicesLen(p.Sigs) + 4 + 1 + byteSlicesLen(p.Beacon))
	e.Bytes(p.Cleartext)
	e.ByteSlices(p.Sigs)
	e.U32(uint32(p.Count))
	if p.Failed {
		e.U8(1)
	} else {
		e.U8(0)
	}
	e.ByteSlices(p.Beacon)
	return e.B
}

// byteSlicesLen is the encoded size of a ByteSlices field.
func byteSlicesLen(v [][]byte) int {
	n := 4
	for _, b := range v {
		n += 4 + len(b)
	}
	return n
}

// DecodeRoundOutput parses a RoundOutput payload.
func DecodeRoundOutput(b []byte) (*RoundOutput, error) {
	d := decBuf{B: b}
	ct, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	sigs, err := d.ByteSlices()
	if err != nil {
		return nil, err
	}
	count, err := d.U32()
	if err != nil {
		return nil, err
	}
	failed, err := d.U8()
	if err != nil {
		return nil, err
	}
	bc, err := d.ByteSlices()
	if err != nil {
		return nil, err
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return &RoundOutput{Cleartext: ct, Sigs: sigs, Count: int32(count), Failed: failed != 0, Beacon: bc}, nil
}

// verifyRoundCert checks a round output's certificate: exactly one
// signature under aggKey (the aggregate of all of def's server keys),
// or for a failed round exactly one signature per server. beaconValue
// is the round's chained beacon output as the verifier reconstructs it
// (nil for failed rounds and when the beacon is off).
func verifyRoundCert(def *group.Definition, aggKey crypto.Element, groupID [32]byte, round uint64, ro *RoundOutput, beaconValue []byte) error {
	keys := []crypto.Element{aggKey}
	if ro.Failed {
		keys = def.ServerPubKeys()
	}
	if len(ro.Sigs) != len(keys) {
		return fmt.Errorf("core: round %d output carries %d certificate signatures, want %d",
			round, len(ro.Sigs), len(keys))
	}
	g := def.Group()
	signed := cleartextSignedBytes(groupID, round, int(ro.Count), ro.Cleartext, beaconValue)
	for j, key := range keys {
		sig, err := crypto.DecodeSignature(g, ro.Sigs[j])
		if err != nil {
			return fmt.Errorf("core: round %d cert %d: %w", round, j, err)
		}
		if err := crypto.Verify(g, key, "dissent/cleartext", signed, sig); err != nil {
			return fmt.Errorf("core: round %d cert %d: %w", round, j, err)
		}
	}
	return nil
}

// BlameStart announces an accusation shuffle session to clients.
type BlameStart struct {
	Session int32
}

// Encode serializes the payload.
func (p *BlameStart) Encode() []byte {
	var e encBuf
	e.U32(uint32(p.Session))
	return e.B
}

// DecodeBlameStart parses a BlameStart payload.
func DecodeBlameStart(b []byte) (*BlameStart, error) {
	d := decBuf{B: b}
	s, err := d.U32()
	if err != nil {
		return nil, err
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return &BlameStart{Session: int32(s)}, nil
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

// Encode serializes the payload.
func (p *TraceBits) Encode() []byte {
	var e encBuf
	e.U32(uint32(p.Session))
	e.Bytes(p.ClientBits)
	e.U8(p.ServerBit)
	e.Int32s(p.Direct)
	e.Bytes(p.DirectBits)
	e.ByteSlices(p.Evidence)
	return e.B
}

// DecodeTraceBits parses a TraceBits payload.
func DecodeTraceBits(b []byte) (*TraceBits, error) {
	d := decBuf{B: b}
	s, err := d.U32()
	if err != nil {
		return nil, err
	}
	cb, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	sb, err := d.U8()
	if err != nil {
		return nil, err
	}
	direct, err := d.Int32s()
	if err != nil {
		return nil, err
	}
	db, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	ev, err := d.ByteSlices()
	if err != nil {
		return nil, err
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return &TraceBits{Session: int32(s), ClientBits: cb, ServerBit: sb, Direct: direct, DirectBits: db, Evidence: ev}, nil
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

// Encode serializes the payload.
func (p *RebuttalRequest) Encode() []byte {
	var e encBuf
	e.U32(uint32(p.Session))
	e.U64(p.AccRound)
	e.U32(p.AccBit)
	e.Bytes(p.ServerBits)
	return e.B
}

// DecodeRebuttalRequest parses a RebuttalRequest payload.
func DecodeRebuttalRequest(b []byte) (*RebuttalRequest, error) {
	d := decBuf{B: b}
	s, err := d.U32()
	if err != nil {
		return nil, err
	}
	round, err := d.U64()
	if err != nil {
		return nil, err
	}
	bit, err := d.U32()
	if err != nil {
		return nil, err
	}
	bits, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return &RebuttalRequest{Session: int32(s), AccRound: round, AccBit: bit, ServerBits: bits}, nil
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

// Encode serializes the payload.
func (p *Rebuttal) Encode() []byte {
	var e encBuf
	e.U32(uint32(p.Session))
	e.U32(uint32(p.ServerIdx))
	e.Bytes(p.Secret)
	e.Bytes(p.ProofC)
	e.Bytes(p.ProofZ)
	return e.B
}

// DecodeRebuttal parses a Rebuttal payload.
func DecodeRebuttal(b []byte) (*Rebuttal, error) {
	d := decBuf{B: b}
	s, err := d.U32()
	if err != nil {
		return nil, err
	}
	idx, err := d.U32()
	if err != nil {
		return nil, err
	}
	secret, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	pc, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	pz, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return &Rebuttal{Session: int32(s), ServerIdx: int32(idx), Secret: secret, ProofC: pc, ProofZ: pz}, nil
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

// Encode serializes the payload.
func (p *BlameDone) Encode() []byte {
	var e encBuf
	e.U32(uint32(p.Session))
	e.U8(p.Verdict)
	e.B = append(e.B, p.Culprit[:]...)
	return e.B
}

// DecodeBlameDone parses a BlameDone payload.
func DecodeBlameDone(b []byte) (*BlameDone, error) {
	d := decBuf{B: b}
	s, err := d.U32()
	if err != nil {
		return nil, err
	}
	v, err := d.U8()
	if err != nil {
		return nil, err
	}
	if len(d.B) != 8 {
		return nil, errTruncated
	}
	var c group.NodeID
	copy(c[:], d.B)
	return &BlameDone{Session: int32(s), Verdict: v, Culprit: c}, nil
}
