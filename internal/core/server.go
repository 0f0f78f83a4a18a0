package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"sort"
	"time"

	"dissent/internal/beacon"
	"dissent/internal/crypto"
	"dissent/internal/dcnet"
	"dissent/internal/group"
	"dissent/internal/obs"
	"dissent/internal/shuffle"
	"dissent/internal/wire"
)

// maxAttempts bounds α-threshold window reopenings per round so the
// reopen decision is deterministic across servers (§3.7).
const maxAttempts = 3

// serverRetryBase scales Policy.WindowMin into the first retry delay
// of the server's retransmission backoff (rounds and roster phases
// alike): on the healthy fast path rounds certify well inside one
// period, so the timer never fires. Subsequent retries follow the
// fixed backoff.
const serverRetryBase = 8

// misbehaviorEscalateThreshold is how many attributed violations a
// member may accumulate before this server escalates: a client
// crossing it is queued for removal in the next certified roster
// update (any single server's pending removals propagate through the
// all-server proposal union), so repeated disruption guarantees
// expulsion even when no single incident reaches a blame verdict.
// Servers past the threshold are reported but cannot be removed — the
// anytrust server set is fixed at genesis.
const misbehaviorEscalateThreshold = 8

// dupFloodAllowance is how many identical duplicates of one client's
// round submission a server tolerates before attributing a replay
// flood. Honest resend loops are capped well below it by the
// retransmission backoff; only deliberate replay crosses it.
const dupFloodAllowance = 8

// withholdSuspectAfter is the retransmission attempt at which a round
// wedged in a server-server phase attributes withholding to the peers
// whose contributions are still missing. The first retries are
// ordinary loss recovery; by the third the silence is deliberate or
// indistinguishable from it.
const withholdSuspectAfter = 3

// stashMaxBytes bounds the total body bytes buffered for early
// messages, alongside the per-message count cap: a flooding adversary
// can otherwise grow the stash to arbitrary memory with large frames
// that never replay.
const stashMaxBytes = 8 << 20

// peerRecord is one member's misbehavior ledger at this server. The
// map is keyed by roster identity — only verified members are
// attributable — so its size is bounded by the roster.
type peerRecord struct {
	kinds     map[string]int
	total     int
	escalated bool
}

// serverPhase tracks a server's top-level protocol phase.
type serverPhase int

const (
	phaseSetup serverPhase = iota
	phaseRunning
	phaseBlame
	phaseRoster
	phaseHalted
)

// roundPhase tracks the per-round state machine of Algorithm 2.
type roundPhase int

const (
	rpCollect roundPhase = iota
	rpInventory
	rpCommit
	rpShare
	rpCertify
	rpDone
)

// roundState is one in-flight round at a server. With pipelining
// several coexist, keyed by round number in Server.rounds; only the
// oldest (the replica's head) may run the commit→certify
// sequence, so server-server phases stay strictly ordered while
// younger rounds collect submissions concurrently.
type roundState struct {
	r       uint64
	attempt int32
	phase   roundPhase

	// vecLen is the round's cleartext vector length, captured from the
	// schedule's ahead view when the window opens. Younger rounds must
	// not consult the live schedule: the head round's Advance moves it.
	vecLen int
	// depthAtStart counts in-flight rounds (this one included) when the
	// window opened, for the round's trace span.
	depthAtStart int

	start   time.Time
	closeAt time.Time // adaptive window close (zero until threshold)
	hardAt  time.Time

	// prefetch is this round's background full-roster pad expansion,
	// launched at window open, consumed by takeServerPad at commit, and
	// reaped at retirement if still unconsumed.
	prefetch *padPrefetch

	// Server-phase retransmission (liveness under message loss): every
	// server-broadcast message of the round's current attempt, re-sent
	// on a timer while the round sits in a server-server phase waiting
	// on peers. The whole sequence is re-sent — not just the newest
	// message — because a peer cut off mid-round can be a full phase
	// behind and need an earlier one (its commit, say) before the
	// latest means anything to it. A re-sent message carries the same
	// body, hence the same digest, so receivers drop it as a retransmit
	// (exchange.collect); it restores liveness after a partition heals
	// without waiting out the hard timeout.
	casts castLog

	// dups counts identical duplicate submissions per client this
	// round; past dupFloodAllowance the excess is attributed as a
	// replay flood. suspected marks peers already attributed for
	// withholding this round, so the wedge check fires once per peer.
	dups      map[int]int
	suspected map[int]bool

	// Phase timestamps/durations for the round's trace span: the final
	// window close, cumulative critical-path pad and combine work, when
	// our certify signature went out, and whether the pad came from the
	// background prefetch.
	windowClosed time.Time
	certifySent  time.Time
	padDur       time.Duration
	combineDur   time.Duration
	prefetchHit  bool

	subs map[int]*Message // client index -> signed submission (evidence)
	cts  map[int][]byte   // client index -> ciphertext

	// Streaming combine (§3.4 hot path): ctAcc accumulates the XOR of
	// accepted ciphertexts as they arrive, so window close pays one
	// vector XOR instead of O(N). accSet records which clients are
	// folded in; at commit time the (normally empty) difference against
	// the deduped direct set is XORed out/in. Raw ciphertexts stay in
	// cts for blame evidence (§3.9). The accumulator persists across
	// α-policy window reopens — reopened windows only add submissions,
	// and the commit-time diff reconciles any inventory drift.
	ctAcc  []byte       // pooled; recycled when the round retires
	accSet map[int]bool // client indices folded into ctAcc

	// The round's four all-servers exchanges for the current attempt
	// (exchange.go). A Commit slot carries the beacon commitment beside
	// the share commitment, and a Share slot the beacon share. A Share
	// slot's digest was hashed once, at ingress: the envelope signature
	// was verified over it and maybeCombine compares it with the sender's
	// commitment.
	inv    exchange[*Inventory]
	commit exchange[Commit]
	share  exchange[*Share]
	cert   exchange[[]byte]

	included   []int   // union l, sorted
	directSets [][]int // l'_j per server after dedup
	// myShare is this server's honest share s_j (pooled), computed over
	// shareIncluded's pads and shareDirect's ciphertexts. Those are
	// included and directSets[idx] as they stood at the computation: a
	// speculation that missed leaves a share over the predicted sets,
	// which computeShare then adjusts by the difference instead of
	// starting over.
	myShare       []byte
	shareIncluded []int
	shareDirect   []int
	// shareMsg is this server's MsgShare for the attempt, built (unsigned)
	// at commit time because its digest is the commitment; maybeShare
	// signs that same digest and reveals it.
	shareMsg  *Message
	cleartext []byte
	failed    bool

	// Round-certificate signing session (ARCHITECTURE.md "Round
	// certificate"). nonce is this server's secret kᵢ for the current
	// commitment: drawn by commitShare, destroyed by the one partial
	// response it answers (sendCertify), by a speculation that missed or
	// by an attempt reset, never persisted.
	// nonces holds the public Rᵢ = kᵢ·G by server index: our own from
	// commit time, each peer's once revealed. certDigest is what the
	// certificate signs, hashed once per attempt; certChal is the
	// challenge our response answered and peers' are checked against
	// (a failed round checks peers' own signatures over certDigest).
	nonce      *big.Int
	nonces     map[int]crypto.Element
	certDigest []byte
	certChal   *big.Int

	// Beacon commit–reveal state; the commitments and shares ride the
	// round's commit and share exchanges.
	myBeaconShare []byte
	beaconEntry   *beacon.Entry // verified entry, set at combine time
}

// dropNonce destroys the round's secret certificate nonce.
func (rs *roundState) dropNonce() {
	if rs.nonce != nil {
		clear(rs.nonce.Bits())
		rs.nonce = nil
	}
}

// roundHistory is the retained state needed for accusation tracing.
type roundHistory struct {
	included   []int
	directSets [][]int
	shares     [][]byte
	cleartext  []byte
	subs       map[int]*Message
	layout     dcnet.Layout
	// ownCleartext marks the pooled buffer this server assembled the
	// cleartext in; it returns to the pool when the history entry is
	// evicted. Shares — ours included — alias message bodies and are left
	// to the GC.
	ownCleartext []byte
}

// blamePhase tracks the accusation sub-protocol (§3.9).
type blamePhase int

const (
	bpShuffle blamePhase = iota
	bpTrace
	bpRebuttal
)

// blameState is one accusation shuffle + trace session.
type blameState struct {
	session int32
	phase   blamePhase
	start   time.Time // when the shuffle opened, for the next round span

	shuf    *shuffleSession      // the accusation shuffle (bpShuffle)
	trace   exchange[*TraceBits] // every server's trace bits (bpTrace)
	acc     *accusation          // the accusation being traced
	flagged int                  // client index awaiting rebuttal, -1 none
	rebutAt time.Time
}

// accusation is a parsed, verified accusation message.
type accusation struct {
	round uint64
	slot  int
	bit   int // global bit index in the round's cleartext vector
}

// Server is the Dissent server engine (Algorithm 2 plus scheduling and
// accusation sub-protocols). It is sans-I/O: callers feed it messages
// and ticks with timestamps and transmit the envelopes it returns.
type Server struct {
	node
	idx   int
	msgKP *crypto.KeyPair // message-shuffle (mod-p) keypair

	clientSeeds [][]byte // pairwise DC-net seeds, by client index
	myClients   []int    // client indices attached to this server

	phase serverPhase

	// Setup state: the scheduling shuffle (retired once it has run, or
	// when the schedule comes from a trusted bootstrap or a restore), the
	// slot keys it produced and the servers' certificates over them.
	setup     *shuffleSession
	slotKeys  []crypto.Element
	schedCert exchange[[]byte]

	// DC-net state. rounds holds every in-flight round keyed by round
	// number; the keys are always the contiguous range [head, nextOpen).
	// The replica's head is the oldest in-flight round, the only one
	// allowed past inventory collection, and nextOpen is the next window
	// to open. The replica's depth caps len(rounds): depth 1 is the
	// serial engine, depth 2 overlaps round r+1's submission window with
	// round r's combine/certify. blameDue defers a requested accusation
	// shuffle until the pipeline drains; blameHold is the first round it
	// holds back — nextOpen when the request certified, which a restore
	// reopens up to and no further.
	nextOpen  uint64
	blameDue  bool
	blameHold uint64
	prevCount int
	rounds    map[uint64]*roundState
	history   map[uint64]*roundHistory
	// Crash-recovery state (see restore.go): rounds below recoverUntil
	// reopen at attempt maxAttempts + restarts — restarts counts this
	// server's restores, and is raised to any recovery attempt it joined
	// for a peer, persisted, so each reopening is strictly higher than
	// any attempt the surviving peers can be wedged on; outMsgs
	// retains recent certified round outputs for catchUp.
	recoverUntil uint64
	restarts     uint32
	outMsgs      map[uint64][]byte

	// Data-plane hot path (see ARCHITECTURE.md "Data-plane hot path"):
	// ppad shards pad expansion across a worker pool for the foreground
	// (window-close) path; prefetchPads are dedicated expanders for the
	// background prefetchers, one per pipeline lane, because a
	// ParallelPad reuses lane buffers and is single-caller — round r
	// uses lane r mod depth, which is quiescent because round r−depth
	// retired (and reaped its prefetch) before r opened. bufs recycles
	// round-sized vectors. accAdjusts counts ciphertexts XORed out of (or
	// into) the share to reconcile the streaming accumulator with the
	// deduped direct set — normally zero; nonzero means stragglers or
	// duplicates were reconciled.
	ppad         *dcnet.ParallelPad
	prefetchPads []*dcnet.ParallelPad
	noPrefetch   bool
	bufs         bufPool
	accAdjusts   int

	blame        *blameState
	blameSession int32

	// Membership churn (see roster.go): pending admissions/removals
	// accumulated while rounds run, applied through a certified roster
	// update at each epoch boundary.
	allowlist        map[string]bool                // pre-approved identity keys (Admit)
	pendingJoin      map[group.NodeID]*JoinRequest  // new-member requests
	pendingRejoin    map[int]bool                   // client index → wants re-admission
	pendingRemove    map[int]bool                   // client index → remove at boundary
	expelRound       map[int]uint64                 // excluded client index → round excluded at
	rosterDue        bool                           // boundary crossed; roster phase pending
	roster           *rosterState                   // in-flight transition
	lastRosterUpdate *group.RosterUpdate            // latest applied certified update
	rosterLog        map[uint64]*group.RosterUpdate // recent updates by version, for catch-up
	rosterDigests    map[uint64][32]byte            // version → post-apply schedule digest
	joinedAt         map[group.NodeID]uint64        // new members → admitting version (welcome anchor)
	snapshotSent     map[group.NodeID]time.Time     // snapshot rate limiting (catchUp)

	// stash buffers messages that arrived ahead of our local phase
	// (e.g. a peer's inventory for round r+1 while we still certify r),
	// each with the digest ingress verified it over; they replay after
	// each state transition. stashBytes tracks the buffered body bytes
	// against stashMaxBytes.
	stash      []stashed
	stashBytes int

	// misbehavior is the per-member violation ledger (bounded by the
	// roster: only verified members are attributable).
	misbehavior map[group.NodeID]*peerRecord

	// testTraceBit is a test hook, nil in production: it lets a test
	// server lie during accusation tracing.
	testTraceBit func(round uint64, clientIdx int, trueBit byte) byte
}

// stashed is one early message and its ingress digest.
type stashed struct {
	m      *Message
	digest []byte
}

// NewServer builds a server engine. kp is the P-256 identity key
// (matching the group definition); msgKP is the mod-p message-shuffle
// key.
func NewServer(def *group.Definition, kp, msgKP *crypto.KeyPair, opts Options) (*Server, error) {
	n, err := newNode(def, kp, opts, serverRetryBase*def.Policy.WindowMin)
	if err != nil {
		return nil, err
	}
	s := &Server{node: n, msgKP: msgKP}
	s.idx = def.ServerIndex(s.id)
	if s.idx < 0 {
		return nil, errors.New("core: key is not a server in this group")
	}
	if !s.msgGrp.Equal(msgKP.Public, def.Servers[s.idx].MsgPubKey) {
		return nil, errors.New("core: message-shuffle key mismatch with definition")
	}
	if err := s.attachClients(def, 0); err != nil {
		return nil, err
	}
	s.ppad = dcnet.NewParallelPad(crypto.NewAESPRNG, 0)
	s.prefetchPads = make([]*dcnet.ParallelPad, s.depth)
	for i := range s.prefetchPads {
		s.prefetchPads[i] = dcnet.NewParallelPad(crypto.NewAESPRNG, 0)
	}
	s.noPrefetch = opts.NoPadPrefetch
	s.rounds = make(map[uint64]*roundState)
	s.history = make(map[uint64]*roundHistory)
	s.outMsgs = make(map[uint64][]byte)
	s.setup = s.openShuffle(shuffleSession{
		grp: s.keyGrp, kp: s.kp, pubs: def.ServerPubKeys(), width: 1,
		submitT: MsgPseudonymSubmit, listT: MsgPseudonymList, stepT: MsgShuffleStep,
		finished: s.finishScheduleShuffle,
		empty: func(time.Time) (*Output, error) {
			return nil, errors.New("core: no valid pseudonym submission at the setup deadline")
		},
	})
	s.schedCert.open(len(def.Servers))
	s.pendingJoin = make(map[group.NodeID]*JoinRequest)
	s.pendingRejoin = make(map[int]bool)
	s.pendingRemove = make(map[int]bool)
	s.expelRound = make(map[int]uint64)
	s.rosterLog = make(map[uint64]*group.RosterUpdate)
	s.rosterDigests = make(map[uint64][32]byte)
	s.joinedAt = make(map[group.NodeID]uint64)
	s.snapshotSent = make(map[group.NodeID]time.Time)
	s.misbehavior = make(map[group.NodeID]*peerRecord)
	return s, nil
}

// MisbehaviorCounts returns a copy of the server's per-kind
// misbehavior tallies across all attributed peers.
func (s *Server) MisbehaviorCounts() map[string]int {
	out := make(map[string]int)
	for _, rec := range s.misbehavior {
		for k, n := range rec.kinds {
			out[k] += n
		}
	}
	return out
}

// Index returns the server's index in the group definition.
func (s *Server) Index() int { return s.idx }

// Round returns the current DC-net round number.
func (s *Server) Round() uint64 { return s.head() }

// Participation returns the previous round's participation count.
func (s *Server) Participation() int { return s.prevCount }

// Excluded reports whether a client index has been expelled.
func (s *Server) Excluded(clientIdx int) bool {
	_, ok := s.expelRound[clientIdx]
	return ok
}

// RoundsInFlight returns the pipeline occupancy: rounds between window
// open and retirement. At PipelineDepth 1 it is 0 or 1.
func (s *Server) RoundsInFlight() int { return len(s.rounds) }

// Start begins the setup phase: waiting for pseudonym submissions.
func (s *Server) Start(now time.Time) (*Output, error) {
	s.phase = phaseSetup
	s.setup.closeAt = now.Add(s.def.Policy.HardTimeout)
	return &Output{Timer: s.setup.closeAt}, nil
}

// Check runs the ingress check on m. It reads only the published
// definition, so any goroutine may call it while the engine steps — a
// transport's reader ahead of the lock that serialises the engine — and
// hand the result to HandleChecked.
func (s *Server) Check(m *Message) Checked { return s.ingress(m, serverSenders) }

// Handle checks an incoming message at ingress and processes it:
// HandleChecked of Check(m).
func (s *Server) Handle(now time.Time, m *Message) (*Output, error) {
	return s.HandleChecked(now, s.Check(m))
}

// HandleChecked processes a checked message, then replays any stashed
// early messages that the resulting state transitions unblocked. A
// message that failed its check is one protocol violation, never an
// error.
func (s *Server) HandleChecked(now time.Time, c Checked) (*Output, error) {
	m := c.Msg
	digest, err := s.admit(c, serverSenders)
	if err != nil {
		return s.violation(m.Round, err), nil
	}
	out, err := s.dispatch(now, m, digest)
	if err != nil {
		return out, err
	}
	if err := s.drainStash(now, out); err != nil {
		return out, err
	}
	s.applyInterdict(out)
	return out, nil
}

// drainStash replays stashed early messages until no more progress is
// made, merging their outputs into out. They passed ingress on arrival,
// so replays skip it and carry the digest it returned.
func (s *Server) drainStash(now time.Time, out *Output) error {
	for len(s.stash) > 0 {
		pending := s.stash
		s.stash = nil
		s.stashBytes = 0
		for _, p := range pending {
			if _, err := out.then(s.dispatch(now, p.m, p.digest)); err != nil {
				return err
			}
		}
		if len(s.stash) >= len(pending) {
			break // no progress; keep waiting
		}
	}
	return nil
}

// stashMsg buffers an early message and its ingress digest for replay,
// bounding both message count and total body bytes so a flooding peer
// cannot grow the stash to arbitrary memory.
func (s *Server) stashMsg(m *Message, digest []byte) *Output {
	const stashCap = 4096
	if len(s.stash) >= stashCap || s.stashBytes+len(m.Body) > stashMaxBytes {
		return s.misbehave(m.Round, m.From, "flood",
			fmt.Errorf("stash overflow dropping %s from %s", m.Type, m.From))
	}
	s.stash = append(s.stash, stashed{m: m, digest: digest})
	s.stashBytes += len(m.Body)
	return &Output{}
}

// serverSenders is the server's sender-role table: every message type a
// server takes and the roles that may send it.
var serverSenders = map[MsgType]sender{
	MsgPseudonymSubmit: fromClient,
	MsgBlameSubmit:     fromClient,
	MsgClientSubmit:    fromClient,
	MsgRebuttal:        fromClient,
	MsgJoinRequest:     fromClient | fromJoiner | fromExpelled,
	MsgPseudonymList:   fromServer,
	MsgBlameList:       fromServer,
	MsgShuffleStep:     fromServer,
	MsgBlameStep:       fromServer,
	MsgScheduleCert:    fromServer,
	MsgInventory:       fromServer,
	MsgCommit:          fromServer,
	MsgShare:           fromServer,
	MsgCertify:         fromServer,
	MsgTraceBits:       fromServer,
	MsgRosterPropose:   fromServer,
	MsgRosterCert:      fromServer,
	MsgRosterUpdate:    fromServer,
	MsgOutput:          fromServer,
}

// dispatch hands a message that passed ingress to its handler, with the
// digest its signature was verified over: an exchange files it beside
// the payload, and the stash keeps it for the replay.
func (s *Server) dispatch(now time.Time, m *Message, digest []byte) (*Output, error) {
	switch m.Type {
	case MsgPseudonymSubmit, MsgBlameSubmit:
		return s.onShuffleSubmit(now, m)
	case MsgPseudonymList, MsgBlameList:
		return s.onShuffleList(now, m, digest)
	case MsgShuffleStep, MsgBlameStep:
		return s.onShuffleStep(now, m, digest)
	case MsgScheduleCert:
		return s.onScheduleCert(now, m, digest)
	case MsgClientSubmit:
		return s.onClientSubmit(now, m, digest)
	case MsgInventory:
		return s.onInventory(now, m, digest)
	case MsgCommit:
		return s.onCommit(now, m, digest)
	case MsgShare:
		return s.onShare(now, m, digest)
	case MsgCertify:
		return s.onCertify(now, m, digest)
	case MsgTraceBits:
		return s.onTraceBits(now, m, digest)
	case MsgRebuttal:
		return s.onRebuttal(now, m, digest)
	case MsgJoinRequest:
		return s.onJoinRequest(now, m)
	case MsgRosterPropose:
		return s.onRosterPropose(now, m, digest)
	case MsgRosterCert:
		return s.onRosterCert(now, m, digest)
	case MsgRosterUpdate:
		return s.onServerRosterUpdate(now, m, digest)
	case MsgOutput:
		return s.onPeerOutput(now, m, digest)
	default:
		return nil, fmt.Errorf("core: no server handler for %s", m.Type)
	}
}

// Tick handles timer expiry, then replays stashed messages the
// resulting transitions unblocked (a window can close on a timer while
// every peer's next-phase message already waits in the stash).
func (s *Server) Tick(now time.Time) (*Output, error) {
	var out *Output
	var err error
	switch s.phase {
	case phaseSetup:
		out, err = s.setup.tick(now)
	case phaseRunning:
		out, err = s.roundTick(now)
	case phaseBlame:
		out, err = s.blameTick(now)
	case phaseRoster:
		out, err = s.rosterTick(now)
	default:
		out, err = &Output{}, nil
	}
	if err != nil {
		return out, err
	}
	if err := s.drainStash(now, out); err != nil {
		return out, err
	}
	s.applyInterdict(out)
	return out, nil
}

// broadcastServers wraps a payload in a signed message addressed to
// every other server.
func (s *Server) broadcastServers(t MsgType, round uint64, body []byte, out *Output) error {
	m, err := s.sign(t, round, body)
	if err != nil {
		return err
	}
	s.sendServers(m, out)
	return nil
}

// sendServers addresses one message to every other server.
func (s *Server) sendServers(m *Message, out *Output) {
	for i, srv := range s.def.Servers {
		if i == s.idx {
			continue
		}
		out.Send = append(out.Send, Envelope{To: srv.ID, Msg: m})
	}
}

// castServers broadcasts a round-phase message to the peer servers and
// records it for retransmission (roundTick) while the round waits on
// them.
func (s *Server) castServers(now time.Time, rs *roundState, t MsgType, body []byte, out *Output) error {
	s.recordCast(now, &rs.casts, s.retrySeed^rs.r, t, rs.r, body, out)
	return s.broadcastServers(t, rs.r, body, out)
}

// recordCast notes a message in a cast log for retransmission, restarts
// the log's backoff and arms its timer.
func (s *Server) recordCast(now time.Time, l *castLog, seed uint64, t MsgType, round uint64, body []byte, out *Output) {
	l.cast(now, s.retry.delay(0, seed), t, round, body)
	out.merge(&Output{Timer: l.dueAt})
}

// recastServers re-broadcasts a cast log to the peer servers once it is
// due, each message signed afresh, and merges the log's timer into out.
// It reports whether anything was re-sent.
func (s *Server) recastServers(now time.Time, l *castLog, seed uint64, out *Output) (bool, error) {
	due, next := l.recast(now, s.retry, seed)
	out.merge(&Output{Timer: next})
	for _, c := range due {
		if err := s.broadcastServers(c.t, c.round, c.body, out); err != nil {
			return false, err
		}
	}
	return len(due) > 0, nil
}

// broadcastClients sends a signed message to every attached client.
func (s *Server) broadcastClients(t MsgType, round uint64, body []byte, out *Output) error {
	m, err := s.sign(t, round, body)
	if err != nil {
		return err
	}
	for _, ci := range s.myClients {
		out.Send = append(out.Send, Envelope{To: s.def.Clients[ci].ID, Msg: m})
	}
	return nil
}

// --- Setup: pseudonym collection and scheduling shuffle ---------------

// finishScheduleShuffle extracts the slot keys and certifies them.
func (s *Server) finishScheduleShuffle(now time.Time, outputs []shuffle.Vec) (*Output, error) {
	s.slotKeys = make([]crypto.Element, len(outputs))
	for i, v := range outputs {
		s.slotKeys[i] = v[0].C2
	}
	sig, err := s.kp.Sign("dissent/schedule", scheduleSignedBytes(s.grpID, s.encodedSlotKeys()), s.rand)
	if err != nil {
		return nil, err
	}
	sigBytes := crypto.EncodeSignature(s.keyGrp, sig)
	out := &Output{}
	body := wire.Encode(&Certify{Attempt: 0, Sig: sigBytes})
	if err := s.broadcastServers(MsgScheduleCert, 0, body, out); err != nil {
		return nil, err
	}
	s.schedCert.put(s.idx, sigBytes, nil)
	return out.then(s.maybeFinishSetup(now))
}

func (s *Server) encodedSlotKeys() [][]byte {
	keys := make([][]byte, len(s.slotKeys))
	for i, k := range s.slotKeys {
		keys[i] = s.keyGrp.Encode(k)
	}
	return keys
}

func (s *Server) onScheduleCert(now time.Time, m *Message, digest []byte) (*Output, error) {
	p, err := decode[Certify](m.Body)
	if err != nil {
		return s.misbehave(0, m.From, "malformed", err), nil
	}
	si := s.def.ServerIndex(m.From)
	if s.slotKeys == nil {
		// Certificates can only be validated once our own shuffle
		// replica finishes; buffer until then.
		return s.stashMsg(m, digest), nil
	}
	sig, err := crypto.DecodeSignature(s.keyGrp, p.Sig)
	if err != nil {
		return s.misbehave(0, m.From, "malformed", err), nil
	}
	if err := crypto.Verify(s.keyGrp, s.def.Servers[si].PubKey, "dissent/schedule",
		scheduleSignedBytes(s.grpID, s.encodedSlotKeys()), sig); err != nil {
		return s.misbehave(0, m.From, "bad-certificate", fmt.Errorf("server %d schedule cert: %w", si, err)), nil
	}
	if out, ok := s.schedCert.collect(s, 0, m, digest, p.Sig); !ok {
		return out, nil
	}
	return s.maybeFinishSetup(now)
}

// maybeFinishSetup distributes the schedule and starts round 0 once
// every server has certified.
func (s *Server) maybeFinishSetup(now time.Time) (*Output, error) {
	if s.phase != phaseSetup || !s.schedCert.full() {
		return &Output{}, nil
	}
	// The replica — and with it the beacon chain's session binding — goes
	// first: a rebind failure (e.g. a non-empty store smuggled past the
	// SDK's archiving) must not leave the server half-running with the
	// schedule never broadcast.
	sigs := s.schedCert.values()
	if err := s.newSchedule(len(s.slotKeys), s.encodedSlotKeys(), sigs); err != nil {
		return nil, err
	}
	s.prevCount = len(s.slotKeys)
	s.phase = phaseRunning
	// Record the base version's post-apply digest (the freshly built
	// schedule) so divergence checks work before any churn, and persist
	// the first restartable snapshot.
	s.rosterDigests[s.def.Version] = s.sched.Digest()
	s.persistSnapshot()

	out := &Output{Events: []Event{{Kind: EventScheduleReady, Detail: fmt.Sprintf("%d slots", len(s.slotKeys))}}}
	body := wire.Encode(&Schedule{Keys: s.certKeys, Sigs: sigs})
	if err := s.broadcastClients(MsgSchedule, 0, body, out); err != nil {
		return nil, err
	}
	s.maybeOpenRounds(now, out)
	return out, nil
}

// --- DC-net rounds (Algorithm 2) --------------------------------------

// expectedClients counts clients not yet expelled.
func (s *Server) expectedClients() int {
	return len(s.def.Clients) - len(s.expelRound)
}

// myExpected counts this server's attached, non-expelled clients — the
// population whose submissions drive its window-closure policy (each
// client submits to its upstream server only, §3.5).
func (s *Server) myExpected() int {
	n := 0
	for _, ci := range s.myClients {
		if !s.Excluded(ci) {
			n++
		}
	}
	return n
}

// maybeOpenRounds opens submission windows until the pipeline is full.
// The gates, in order: capacity (at most depth rounds in flight); a due
// accusation shuffle (from blameHold on) or roster phase drains the
// pipeline first; an epoch-boundary round only opens once every earlier
// round has retired (so the roster phase and permutation rotation build
// on a settled schedule); and only one submission window collects at a
// time — round r+1 opens the moment round r's collection closes, which
// is exactly the overlap that pipelining buys.
func (s *Server) maybeOpenRounds(now time.Time, out *Output) {
	if s.phase != phaseRunning || s.sched == nil {
		return
	}
	for len(s.rounds) < s.depth {
		if s.blameDue && s.nextOpen >= s.blameHold || s.rosterDue {
			return
		}
		if s.epochBoundary(s.nextOpen) && len(s.rounds) > 0 {
			return
		}
		if prev, ok := s.rounds[s.nextOpen-1]; ok && prev.phase == rpCollect {
			return
		}
		s.openRound(now, out)
	}
}

// openRound initializes round state and opens its submission window.
// The vector length is pinned from the round's layout: every directive
// it includes has been queued (capacity gate), so it is exactly the
// layout this round's clients compose against.
func (s *Server) openRound(now time.Time, out *Output) {
	rs := &roundState{
		r:      s.nextOpen,
		phase:  rpCollect,
		vecLen: s.sched.Layout(s.nextOpen).Len,
		start:  now,
		hardAt: now.Add(s.def.Policy.HardTimeout),
		subs:   make(map[int]*Message),
		cts:    make(map[int][]byte),
		accSet: make(map[int]bool),
		nonces: make(map[int]crypto.Element),
	}
	s.openExchanges(rs)
	if rs.r < s.recoverUntil {
		// Crash recovery (restore.go): surviving peers may hold this round
		// wedged at some pre-crash attempt we cannot know — one the
		// α-policy reached, or the recovery attempt of an earlier restart.
		// Reopen strictly above both, so the moment our inventory arrives
		// their escalation reset (onInventory) abandons the wedged attempt
		// and rejoins ours.
		rs.attempt = maxAttempts + int32(s.restarts)
		rs.closeAt = now.Add(s.def.Policy.WindowMin)
		out.merge(&Output{Timer: rs.closeAt})
	}
	if s.myExpected() == 0 && s.expectedClients() > 0 {
		// Every client attached here is excluded, so no submission will
		// arrive: close the window as it opens rather than at HardTimeout,
		// which the peers would charge as withholding. (With no client in
		// the whole group the round fails however early it closes; it
		// keeps the hard timeout's pace.)
		rs.closeAt = now
		out.merge(&Output{Timer: rs.closeAt})
	}
	s.rounds[rs.r] = rs
	s.nextOpen++
	rs.depthAtStart = len(s.rounds)
	s.launchPadPrefetch(rs)
	out.merge(&Output{Timer: rs.hardAt})
}

// launchPadPrefetch starts the background expansion of a round's
// full-roster server pad: the (pair, round) seeds are known the moment
// the round number is, so the O(N·L) stream work runs concurrently with
// the submission window instead of on the critical path at its close.
// The expansion covers every non-excluded client; window close XORs out
// the (normally few) absentees. Epoch-boundary invalidation is
// structural: openRound runs after a roster transition applies, so a
// new prefetch is always expanded over the fresh roster, and
// takeServerPad double-checks round and roster version before trusting
// one.
func (s *Server) launchPadPrefetch(rs *roundState) {
	if s.noPrefetch || s.sched == nil {
		return
	}
	length := rs.vecLen
	clients := make([]int, 0, len(s.def.Clients))
	seeds := make([][]byte, 0, len(s.def.Clients))
	for ci := range s.def.Clients {
		if s.Excluded(ci) || s.def.Clients[ci].Expelled {
			continue
		}
		clients = append(clients, ci)
		seeds = append(seeds, s.clientSeeds[ci])
	}
	if len(clients) == 0 || length == 0 {
		return
	}
	pf := &padPrefetch{
		round:   rs.r,
		version: s.def.Version,
		clients: clients,
		buf:     s.bufs.get(length),
		done:    make(chan struct{}),
	}
	rs.prefetch = pf
	pad := s.prefetchPads[int(rs.r%uint64(s.depth))] // dedicated lane; see the field comment
	go func() {
		pad.ServerPadInto(pf.buf, seeds, pf.round)
		close(pf.done)
	}()
}

// reapPrefetch retires a round's unconsumed prefetch, recycling its
// buffer.
func (s *Server) reapPrefetch(rs *roundState) {
	if pf := rs.prefetch; pf != nil {
		<-pf.done
		s.bufs.put(pf.buf)
		rs.prefetch = nil
	}
}

// takeServerPad produces ⊕_{i∈included} PRNG(K_ij, r) in a pooled
// buffer: from the prefetched full-roster pad when one is valid and the
// adjustment (XOR out absentees, XOR in unprefetched members) is
// cheaper than recomputing over the included set; otherwise by
// multicore expansion over exactly the included seeds.
func (s *Server) takeServerPad(rs *roundState, length int) []byte {
	if pf := rs.prefetch; pf != nil && pf.round == rs.r && pf.version == s.def.Version && len(pf.buf) == length {
		diff := symmetricDiff(pf.clients, rs.included)
		if len(diff) < len(rs.included) {
			rs.prefetch = nil
			<-pf.done
			rs.prefetchHit = true
			// The adjustment is just more streams to fold in (XOR toggles
			// absentees out and latecomers in alike); run it through the
			// worker pool so a large absentee set costs no more per core
			// than the recompute path it displaced.
			adjSeeds := make([][]byte, 0, len(diff))
			for _, ci := range diff {
				adjSeeds = append(adjSeeds, s.clientSeeds[ci])
			}
			s.ppad.ServerPadInto(pf.buf, adjSeeds, rs.r)
			return pf.buf
		}
		// Participation collapsed below the adjustment break-even:
		// recompute over the included set; the stale prefetch is reaped
		// when the round retires.
	}
	share := s.bufs.get(length)
	seeds := make([][]byte, 0, len(rs.included))
	for _, ci := range rs.included {
		seeds = append(seeds, s.clientSeeds[ci])
	}
	s.ppad.ServerPadInto(share, seeds, rs.r)
	return share
}

func (s *Server) onClientSubmit(now time.Time, m *Message, digest []byte) (*Output, error) {
	if s.phase != phaseRunning && s.phase != phaseBlame {
		return &Output{}, nil
	}
	rs := s.rounds[m.Round]
	if rs == nil {
		if m.Round >= s.nextOpen {
			// A pipelined client submits round r+1 the moment it has sent
			// round r; that can land here before round r's window closes and
			// opens r+1. Stash within one pipeline horizon, drop a client
			// claiming an impossible future.
			if m.Round < s.nextOpen+uint64(s.depth) && s.phase == phaseRunning {
				return s.stashMsg(m, digest), nil
			}
			return &Output{}, nil
		}
		// A submission for a retired round states where the client is: it
		// missed that round's output (its links dropped, or its upstream
		// crashed), and clients consume outputs strictly in round order.
		out := &Output{}
		return out, s.catchUp(now, m.From, position{round: m.Round, version: s.def.Version}, out)
	}
	if rs.phase > rpInventory {
		return &Output{}, nil // too late for this round
	}
	ci := s.def.ClientIndex(m.From)
	if s.Excluded(ci) {
		return &Output{}, nil
	}
	p, err := DecodeClientSubmit(m.Body)
	if err != nil {
		return s.misbehave(rs.r, m.From, "malformed", err), nil
	}
	if len(p.CT) != rs.vecLen {
		return s.misbehave(rs.r, m.From, "malformed",
			fmt.Errorf("client %d ciphertext length %d, want %d", ci, len(p.CT), rs.vecLen)), nil
	}
	if _, dup := rs.subs[ci]; dup {
		// A duplicate is usually an honest retransmission and drops
		// silently — but two *distinct* signed submissions for one
		// round are provable equivocation, and a stream of identical
		// duplicates past the allowance is a replay flood (honest
		// resend loops are capped far below it by the backoff).
		if !bytes.Equal(rs.cts[ci], p.CT) {
			return s.misbehave(rs.r, m.From, "equivocation",
				fmt.Errorf("client %d submitted two distinct ciphertexts for round %d", ci, rs.r)), nil
		}
		if rs.dups == nil {
			rs.dups = make(map[int]int)
		}
		rs.dups[ci]++
		if rs.dups[ci] > dupFloodAllowance {
			return s.misbehave(rs.r, m.From, "replay",
				fmt.Errorf("client %d replayed round %d submission %d times", ci, rs.r, rs.dups[ci])), nil
		}
		return &Output{}, nil
	}
	rs.subs[ci] = m
	rs.cts[ci] = p.CT

	// Streaming combine: fold the ciphertext into the running
	// accumulator now, off the round's critical path. Window close then
	// costs one accumulator XOR regardless of N.
	if rs.ctAcc == nil {
		rs.ctAcc = s.bufs.get(rs.vecLen)
	}
	crypto.XORBytes(rs.ctAcc, p.CT)
	rs.accSet[ci] = true

	if rs.phase != rpCollect {
		return &Output{}, nil
	}
	expected := s.myExpected()
	if len(rs.subs) >= expected {
		return s.closeWindow(now, rs)
	}
	threshold := int(float64(expected)*s.def.Policy.WindowThreshold + 0.5)
	if threshold < 1 {
		threshold = 1
	}
	if rs.closeAt.IsZero() && len(rs.subs) >= threshold {
		elapsed := now.Sub(rs.start)
		window := time.Duration(float64(elapsed) * s.def.Policy.WindowMultiplier)
		if window < s.def.Policy.WindowMin {
			window = s.def.Policy.WindowMin
		}
		rs.closeAt = rs.start.Add(window)
		if rs.closeAt.After(rs.hardAt) {
			rs.closeAt = rs.hardAt
		}
		if !rs.closeAt.After(now) {
			return s.closeWindow(now, rs)
		}
		return &Output{Timer: rs.closeAt}, nil
	}
	return &Output{}, nil
}

// roundTick fires window deadlines and retransmission timers for every
// in-flight round, oldest first.
func (s *Server) roundTick(now time.Time) (*Output, error) {
	out := &Output{}
	for _, r := range sortedRounds(s.rounds) {
		rs := s.rounds[r]
		if rs == nil {
			continue // retired by an earlier round's cascade
		}
		if rs.phase == rpCollect {
			if (!rs.closeAt.IsZero() && !now.Before(rs.closeAt)) || !now.Before(rs.hardAt) {
				if _, err := out.then(s.closeWindow(now, rs)); err != nil {
					return nil, err
				}
				continue
			}
			t := rs.hardAt
			if !rs.closeAt.IsZero() && rs.closeAt.Before(t) {
				t = rs.closeAt
			}
			out.merge(&Output{Timer: t})
			continue
		}
		// Server-server phases: re-broadcast the round's phase messages
		// while peers keep us waiting. The transports are reliable streams
		// but not reliable links — a peer that reconnected after a partition
		// missed everything sent meanwhile, and without this the round would
		// wedge until the operator intervened. The whole cast sequence goes
		// out, not just the newest message: a peer can be a full phase
		// behind and needs the earlier ones first.
		if rs.phase > rpCollect && rs.phase < rpDone {
			resent, err := s.recastServers(now, &rs.casts, s.retrySeed^rs.r, out)
			if err != nil {
				return nil, err
			}
			// A round still wedged after several retries is being
			// withheld from: attribute the silence to the peers whose
			// phase contribution is missing (once per peer per round).
			if resent && rs.casts.n >= withholdSuspectAfter {
				out.merge(s.suspectWithholding(rs))
			}
		}
	}
	return out, nil
}

// sortedRounds returns the in-flight round numbers in ascending order.
func sortedRounds(m map[uint64]*roundState) []uint64 {
	ks := make([]uint64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// closeWindow ends the collection phase and broadcasts the inventory.
// This is also the pipeline trigger: the moment one round stops
// collecting, the next round's window may open.
//
// In steady state the inventory tells nobody anything new — every
// server heard from exactly its direct share of the previous certified
// round's included set — so the commitment rides along and the round
// costs three server hops instead of four. The server speculates when
// this is the round's first attempt, the round is the pipeline head (so
// the previous round has certified here and the beacon share signs a
// settled chain head) and its own submissions match that prediction;
// maybeCommit decides, from all M inventories, whether the speculation
// holds. α-reopens, recovery attempts, rounds that were not yet the
// head at window close and rounds whose predecessor left no history
// here (round 0; after a failed or adopted round, or a restore) run the
// explicit MsgCommit exchange.
func (s *Server) closeWindow(now time.Time, rs *roundState) (*Output, error) {
	if rs.phase != rpCollect {
		return &Output{}, nil
	}
	rs.phase = rpInventory
	rs.windowClosed = now
	inv := &Inventory{Attempt: rs.attempt}
	own := sortedKeys(rs.subs)
	for _, ci := range own {
		inv.Clients = append(inv.Clients, int32(ci))
	}
	if prev := s.history[rs.r-1]; rs.attempt == 0 && rs.r == s.head() &&
		prev != nil && slices.Equal(own, prev.directSets[s.idx]) {
		rs.included, rs.directSets = prev.included, prev.directSets
		s.computeShare(rs)
		commit, err := s.commitShare(rs)
		if err != nil {
			return nil, err
		}
		inv.Hash, inv.BeaconCommit = commit.Hash, commit.BeaconCommit
	}
	s.log.Debug("window closed", "round", rs.r, "submissions", len(rs.subs),
		"attempt", rs.attempt, "window", now.Sub(rs.start), "speculating", inv.Hash != nil)
	out := &Output{}
	if err := s.castServers(now, rs, MsgInventory, wire.Encode(inv), out); err != nil {
		return nil, err
	}
	rs.inv.put(s.idx, inv, nil)
	if _, err := out.then(s.maybeCommit(now, rs)); err != nil {
		return nil, err
	}
	s.maybeOpenRounds(now, out)
	return out, nil
}

func (s *Server) onInventory(now time.Time, m *Message, digest []byte) (*Output, error) {
	rs := s.rounds[m.Round]
	if rs == nil {
		if m.Round >= s.nextOpen {
			return s.stashMsg(m, digest), nil // a round we haven't opened yet
		}
		// Retired round. A server still inventorying it missed the
		// certification (it was down when the certs flew); it adopts the
		// certified outputs catchUp sends instead of wedging.
		out := &Output{}
		return out, s.catchUp(now, m.From, position{round: m.Round, version: s.def.Version}, out)
	}
	p, err := decode[Inventory](m.Body)
	if err != nil {
		return s.misbehave(rs.r, m.From, "malformed", err), nil
	}
	if p.Attempt != rs.attempt {
		if p.Attempt > maxAttempts && p.Attempt > rs.attempt {
			// A restarted peer reopened this round at a recovery attempt
			// (openRound); abandon the attempt we were wedged on and
			// rejoin. Kept submissions ride the new attempt through our
			// fresh inventory.
			return s.escalateAttempt(now, rs, s.def.ServerIndex(m.From), p, digest)
		}
		// Inventories from a newer α-reopen attempt can arrive while we
		// are still collecting for it; only same-attempt ones are used.
		return &Output{}, nil
	}
	if out, ok := rs.inv.collect(s, rs.r, m, digest, p); !ok {
		return out, nil
	}
	return s.maybeCommit(now, rs)
}

// maybeCommit runs once all inventories for the attempt are in: adopt
// the speculative commitments they carry if the speculation holds, else
// apply the α-policy, then compute and commit this server's ciphertext.
// Gate B: only the head round (the oldest in flight) proceeds — its
// commit/share/certify sequence consumes the schedule and the beacon
// chain head, so those must run in round order. A younger round that
// has every inventory simply waits; retiring the head re-invokes this.
func (s *Server) maybeCommit(now time.Time, rs *roundState) (*Output, error) {
	if rs.phase != rpInventory || !rs.inv.full() {
		return &Output{}, nil
	}
	if rs.r != s.head() {
		return &Output{}, nil
	}
	// Union and dedup (lowest server index keeps a duplicate client).
	claimed := make(map[int]int) // client -> owning server
	for si := 0; si < len(s.def.Servers); si++ {
		for _, ci := range rs.inv.get(si).Clients {
			c := int(ci)
			if s.Excluded(c) {
				continue
			}
			if _, ok := claimed[c]; !ok {
				claimed[c] = si
			}
		}
	}
	included := sortedKeys(claimed)
	directSets := make([][]int, len(s.def.Servers))
	for _, ci := range included {
		si := claimed[ci]
		directSets[si] = append(directSets[si], ci)
	}

	if speculated := len(rs.inv.get(s.idx).Hash) > 0; speculated {
		if s.speculationHolds(rs, included, directSets) {
			// Every server committed, at window close, to the share over
			// exactly these sets: the M inventories are the commit phase.
			for si := range s.def.Servers {
				inv := rs.inv.get(si)
				rs.commit.put(si, Commit{Attempt: inv.Attempt, Hash: inv.Hash, BeaconCommit: inv.BeaconCommit}, rs.inv.digest(si))
			}
			rs.phase = rpCommit
			return s.maybeShare(now, rs)
		}
		// Miss: the speculative commitment is void at every server (they
		// apply the same rule to the same M inventories). Its nonce dies
		// unanswered and unrevealed; the share is kept for computeShare to
		// adjust to the sets the inventories actually produced.
		rs.dropNonce()
		rs.shareMsg = nil
	}
	rs.included, rs.directSets = included, directSets

	// α-policy (§3.7): too few participants → reopen the window, a
	// bounded number of times.
	floor := int(float64(s.prevCount)*s.def.Policy.Alpha + 0.999999)
	if len(rs.included) < floor && rs.attempt < maxAttempts {
		rs.attempt++
		rs.phase = rpCollect
		rs.closeAt = now.Add(s.def.Policy.WindowMin)
		if rs.closeAt.After(rs.hardAt) {
			rs.closeAt = rs.hardAt
		}
		rs.inv.open(len(s.def.Servers))
		// The recorded casts are now a stale attempt; peers would drop
		// them on the attempt check anyway.
		rs.casts.clear()
		return &Output{Timer: rs.closeAt}, nil
	}
	if len(rs.included) < floor || len(rs.included) == 0 {
		// Round failed: discard ciphertexts, certify a failure output
		// carrying the fresh participation count (§3.7).
		rs.failed = true
		rs.cleartext = nil
		return s.sendCertify(now, rs)
	}
	s.computeShare(rs)
	return s.sendCommit(now, rs)
}

// speculationHolds is the rule that turns M inventories into a commit
// phase. It is a deterministic function of those M signed messages, the
// exclusion set and the previous certified round — state every honest
// server holds identically — so all of them adopt or all fall back:
// every inventory carries a commitment, the deduplicated union is the
// set this server predicted (hence the set every server's pads cover —
// a server whose prediction differed sees the same union fail its own
// test), and dedup took nothing from anyone, so each committed share
// covers exactly the ciphertexts its sender listed.
func (s *Server) speculationHolds(rs *roundState, included []int, directSets [][]int) bool {
	if !slices.Equal(included, rs.shareIncluded) {
		return false
	}
	for si := range s.def.Servers {
		inv := rs.inv.get(si)
		if len(inv.Hash) == 0 || !slices.EqualFunc(inv.Clients, directSets[si],
			func(listed int32, kept int) bool { return int(listed) == kept }) {
			return false
		}
	}
	return true
}

// computeShare brings rs.myShare to s_j = (⊕_{i∈l} PRNG(K_ij)) ⊕
// (⊕_{i∈l'_j} c_i) over rs.included and rs.directSets. Starting fresh,
// the pad comes from the window-long background prefetch (or multicore
// expansion over the included seeds) and the ciphertext term is the
// streaming accumulator, corrected by the — normally empty — diff
// between what we accumulated and the deduped direct set. Starting from
// the share of a speculation that missed, both terms are corrected by
// the symmetric difference between the sets it covers and the target:
// a straggler costs two streams' work, not a second full expansion.
func (s *Server) computeShare(rs *roundState) {
	direct := rs.directSets[s.idx]
	fresh := rs.myShare == nil
	t0 := time.Now()
	if fresh {
		rs.myShare = s.takeServerPad(rs, rs.vecLen)
	} else {
		diff := symmetricDiff(rs.shareIncluded, rs.included)
		seeds := make([][]byte, 0, len(diff))
		for _, ci := range diff {
			seeds = append(seeds, s.clientSeeds[ci])
		}
		s.ppad.ServerPadInto(rs.myShare, seeds, rs.r)
	}
	rs.padDur += time.Since(t0)

	t0 = time.Now()
	have := rs.shareDirect
	if fresh {
		if rs.ctAcc != nil {
			crypto.XORBytes(rs.myShare, rs.ctAcc)
		}
		have = sortedKeys(rs.accSet)
	}
	// Fresh, the difference is what was accumulated but is not ours after
	// dedup (a late submission past our inventory, a duplicate claimed by
	// a lower-index server, a mid-round exclusion) or ours but not
	// accumulated.
	for _, ci := range symmetricDiff(have, direct) {
		crypto.XORBytes(rs.myShare, rs.cts[ci])
		s.accAdjusts++
	}
	rs.combineDur += time.Since(t0)
	rs.shareIncluded, rs.shareDirect = rs.included, direct
}

// symmetricDiff returns the elements in exactly one of two ascending
// int slices, ascending.
func symmetricDiff(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			i, j = i+1, j+1
		}
	}
	return append(append(out, a[i:]...), b[j:]...)
}

// commitShare commits this server to the exact MsgShare it will reveal —
// attempt, share, beacon share and a fresh certificate nonce, all fixed
// here — and returns the commitment: that message's digest. The share is
// pseudorandom (it carries this server's pads), so the digest hides it;
// and it is the value the share's envelope signature covers, so sender
// and receivers each hash the share once for both purposes. Every
// attempt of a round re-enters here (speculation at window close, the
// explicit commit after a miss, α-policy reopen, peer-recovery
// escalation, restart), each time replacing the nonce, so none outlives
// the commitment it was drawn for.
func (s *Server) commitShare(rs *roundState) (*Commit, error) {
	k, err := s.keyGrp.RandomScalar(s.rand)
	if err != nil {
		return nil, err
	}
	rs.dropNonce()
	rs.nonce = k
	rs.nonces[s.idx] = s.keyGrp.BaseMult(k)

	if s.beaconChain != nil && rs.myBeaconShare == nil {
		// Beacon commit phase rides the round's commit: the share signs
		// the chain head, and its hash commits us before we see any
		// peer's reveal (unbiasable with one honest server).
		bshare, err := beacon.MakeShare(s.kp, rs.r, s.beaconChain.Head(), s.rand)
		if err != nil {
			return nil, err
		}
		rs.myBeaconShare = bshare
	}
	body := wire.Encode(&Share{Attempt: rs.attempt, CT: rs.myShare, BeaconShare: rs.myBeaconShare,
		Nonce: s.keyGrp.Encode(rs.nonces[s.idx])})
	if s.interdict != nil && s.interdict.Share != nil {
		// A byzantine server's tampering lands on the encoded copy it
		// commits to and reveals; rs.myShare stays the honest share that a
		// missed speculation is adjusted from.
		p, err := decode[Share](body)
		if err != nil {
			return nil, err
		}
		s.interdict.Share(rs.r, p.CT)
	}
	rs.shareMsg = &Message{From: s.id, Type: MsgShare, Round: rs.r, Body: body}
	commit := &Commit{Attempt: rs.attempt, Hash: rs.shareMsg.digest(s.grpID)}
	if rs.myBeaconShare != nil {
		commit.BeaconCommit = beacon.CommitShare(rs.myBeaconShare)
	}
	return commit, nil
}

// sendCommit opens the explicit commit phase: commitShare's commitment
// goes out as a MsgCommit of its own.
func (s *Server) sendCommit(now time.Time, rs *roundState) (*Output, error) {
	commit, err := s.commitShare(rs)
	if err != nil {
		return nil, err
	}
	rs.phase = rpCommit
	out := &Output{}
	if err := s.castServers(now, rs, MsgCommit, wire.Encode(commit), out); err != nil {
		return nil, err
	}
	rs.commit.put(s.idx, *commit, nil)
	return out.then(s.maybeShare(now, rs))
}

func (s *Server) onCommit(now time.Time, m *Message, digest []byte) (*Output, error) {
	rs := s.rounds[m.Round]
	if rs == nil {
		return &Output{}, nil
	}
	p, err := decode[Commit](m.Body)
	if err != nil {
		return s.misbehave(rs.r, m.From, "malformed", err), nil
	}
	if p.Attempt != rs.attempt {
		return &Output{}, nil
	}
	if out, ok := rs.commit.collect(s, rs.r, m, digest, *p); !ok {
		return out, nil
	}
	return s.maybeShare(now, rs)
}

func (s *Server) maybeShare(now time.Time, rs *roundState) (*Output, error) {
	if rs.phase != rpCommit || !rs.commit.full() {
		return &Output{}, nil
	}
	rs.phase = rpShare
	out := &Output{}
	// Reveal the message commitShare committed to, signed over the digest
	// computed there: our own commitment.
	digest := rs.commit.get(s.idx).Hash
	if err := s.signDigest(rs.shareMsg, digest); err != nil {
		return nil, err
	}
	s.recordCast(now, &rs.casts, s.retrySeed^rs.r, MsgShare, rs.r, rs.shareMsg.Body, out)
	s.sendServers(rs.shareMsg, out)
	// Combine what was revealed: our entry aliases our own message body,
	// as the peers' entries alias theirs.
	own, err := decode[Share](rs.shareMsg.Body)
	if err != nil {
		return nil, err
	}
	rs.share.put(s.idx, own, digest)
	return out.then(s.maybeCombine(now, rs))
}

// onShare takes a peer's revealed share. digest is the one ingress
// verified the envelope over: one hash of the share serves twice, since
// the sender's commitment is the same value.
func (s *Server) onShare(now time.Time, m *Message, digest []byte) (*Output, error) {
	rs := s.rounds[m.Round]
	if rs == nil {
		return &Output{}, nil
	}
	p, err := decode[Share](m.Body)
	if err != nil {
		return s.misbehave(rs.r, m.From, "malformed", err), nil
	}
	if p.Attempt != rs.attempt {
		return &Output{}, nil
	}
	nonce, err := s.keyGrp.Decode(p.Nonce)
	if err != nil {
		return s.misbehave(rs.r, m.From, "malformed", fmt.Errorf("share nonce: %w", err)), nil
	}
	if out, ok := rs.share.collect(s, rs.r, m, digest, p); !ok {
		return out, nil
	}
	rs.nonces[s.def.ServerIndex(m.From)] = nonce
	return s.maybeCombine(now, rs)
}

// maybeCombine verifies commitments and assembles the cleartext.
func (s *Server) maybeCombine(now time.Time, rs *roundState) (*Output, error) {
	if rs.phase != rpShare || !rs.share.full() {
		return &Output{}, nil
	}
	for si := 0; si < len(s.def.Servers); si++ {
		if !bytes.Equal(rs.commit.get(si).Hash, rs.share.digest(si)) {
			// The share or nonce this server distributed is not the one
			// it committed to: equivocation (every honest peer compares
			// against the same broadcast commitment, so all reach this
			// verdict for the same sender).
			return s.misbehave(rs.r, s.def.Servers[si].ID, "equivocation",
				fmt.Errorf("server %d share or nonce does not match its commitment", si)), nil
		}
	}
	if s.beaconChain != nil {
		// Replay the beacon commit–reveal through a beacon.Round, which
		// checks every share against its commitment and every peer's
		// signature (ours we made in commitShare), and assembles the
		// round's chain entry.
		br := beacon.NewRound(s.keyGrp, s.def.ServerPubKeys(), rs.r, s.beaconChain.Head())
		for si := 0; si < len(s.def.Servers); si++ {
			if err := br.Commit(si, rs.commit.get(si).BeaconCommit); err != nil {
				return s.violation(rs.r, err), nil
			}
			reveal := br.Reveal
			if si == s.idx {
				reveal = br.RevealOwn
			}
			if err := reveal(si, rs.share.get(si).BeaconShare); err != nil {
				return s.violation(rs.r, err), nil
			}
		}
		entry, err := br.Entry()
		if err != nil {
			return s.violation(rs.r, err), nil
		}
		rs.beaconEntry = entry
	}
	t0 := time.Now()
	cleartext := s.bufs.get(rs.vecLen)
	for si := 0; si < len(s.def.Servers); si++ {
		crypto.XORBytes(cleartext, rs.share.get(si).CT)
	}
	rs.cleartext = cleartext
	rs.combineDur += time.Since(t0)
	return s.sendCertify(now, rs)
}

// sendCertify contributes this server's part of the round certificate:
// its partial response to the collective signature, answering the
// challenge fixed by every server's revealed nonce and the assembled
// cleartext. The nonce is consumed by that one response; without a
// live one (a second call in an attempt, or a call after an attempt
// reset) it fails closed rather than answer twice. A failed round ran
// no commit/share exchange, so each server signs it on its own.
func (s *Server) sendCertify(now time.Time, rs *roundState) (*Output, error) {
	if !rs.failed && rs.nonce == nil {
		return nil, fmt.Errorf("core: round %d attempt %d: certify without a live nonce", rs.r, rs.attempt)
	}
	rs.phase = rpCertify
	rs.certifySent = now
	rs.certDigest = cleartextSignedBytes(s.grpID, rs.r, len(rs.included), rs.cleartext, beaconValueBytes(rs.beaconEntry))
	var cert []byte
	if rs.failed {
		sig, err := s.kp.Sign("dissent/cleartext", rs.certDigest, s.rand)
		if err != nil {
			return nil, err
		}
		cert = crypto.EncodeSignature(s.keyGrp, sig)
	} else {
		nonces := make([]crypto.Element, len(s.def.Servers))
		for i := range nonces {
			nonces[i] = rs.nonces[i]
		}
		rs.certChal = s.cert.Challenge("dissent/cleartext", nonces, rs.certDigest)
		cert = crypto.EncodeScalar(s.keyGrp, s.cert.Respond(s.idx, s.kp.Private, rs.nonce, rs.certChal))
		rs.dropNonce()
	}
	out := &Output{}
	body := wire.Encode(&Certify{Attempt: rs.attempt, Sig: cert})
	if err := s.castServers(now, rs, MsgCertify, body, out); err != nil {
		return nil, err
	}
	rs.cert.put(s.idx, cert, nil)
	return out.then(s.maybeOutput(now, rs))
}

func (s *Server) onCertify(now time.Time, m *Message, digest []byte) (*Output, error) {
	rs := s.rounds[m.Round]
	if rs == nil {
		return &Output{}, nil
	}
	p, err := decode[Certify](m.Body)
	if err != nil {
		return s.misbehave(rs.r, m.From, "malformed", err), nil
	}
	if p.Attempt > rs.attempt {
		return &Output{}, nil
	}
	if rs.phase < rpCertify {
		// A peer can certify before our own combine completes (its
		// copy of a slow share may arrive before ours under link
		// serialization); verify once we have the cleartext.
		return s.stashMsg(m, digest), nil
	}
	if p.Attempt != rs.attempt {
		return &Output{}, nil
	}
	si := s.def.ServerIndex(m.From)
	if err := s.checkCertify(rs, si, p.Sig); err != nil {
		return s.misbehave(rs.r, m.From, "bad-certificate",
			fmt.Errorf("server %d certify: %w", si, err)), nil
	}
	if out, ok := rs.cert.collect(s, rs.r, m, digest, p.Sig); !ok {
		return out, nil
	}
	return s.maybeOutput(now, rs)
}

// checkCertify verifies server si's certificate contribution for a
// round in its certify phase: its partial response against the nonce
// it revealed, or for a failed round its own signature. Either way one
// verification, attributable to si alone.
func (s *Server) checkCertify(rs *roundState, si int, cert []byte) error {
	if rs.failed {
		sig, err := crypto.DecodeSignature(s.keyGrp, cert)
		if err != nil {
			return err
		}
		return crypto.Verify(s.keyGrp, s.def.Servers[si].PubKey, "dissent/cleartext", rs.certDigest, sig)
	}
	z, err := crypto.DecodeScalar(s.keyGrp, cert)
	if err != nil {
		return err
	}
	return s.cert.VerifyPartial(si, rs.nonces[si], rs.certChal, z)
}

// maybeOutput completes the round once every server's certificate
// contribution is in: assemble the certified output, retire the round on
// the replica, keep what accusation tracing needs, and finish as for any
// retired round.
func (s *Server) maybeOutput(now time.Time, rs *roundState) (*Output, error) {
	if rs.phase != rpCertify || !rs.cert.full() {
		return &Output{}, nil
	}
	// Every server's contribution is in and individually verified: the
	// partial responses sum to one signature under the aggregate key. A
	// failed round carries the servers' own signatures as they are.
	sigs := rs.cert.values()
	if !rs.failed {
		partials := make([]*big.Int, len(sigs))
		for i, z := range sigs {
			partials[i] = new(big.Int).SetBytes(z)
		}
		sigs = [][]byte{crypto.EncodeSignature(s.keyGrp, s.cert.Combine(rs.certChal, partials))}
	}
	ro := &RoundOutput{
		Cleartext: rs.cleartext,
		Sigs:      sigs,
		Count:     int32(len(rs.included)),
		Failed:    rs.failed,
	}
	if rs.beaconEntry != nil && !rs.failed {
		ro.Beacon = rs.beaconEntry.Shares
	}
	// History for accusation tracing records the round's layout, which
	// retirement moves past. The assembled cleartext is a pooled buffer;
	// the history entry owns it until eviction (blame tracing may read it
	// for RetainRounds rounds). Shares alias message bodies.
	var hist *roundHistory
	if !rs.failed {
		hist = &roundHistory{
			included:     rs.included,
			directSets:   rs.directSets,
			cleartext:    rs.cleartext,
			ownCleartext: rs.cleartext,
			subs:         rs.subs,
			layout:       s.sched.Layout(s.head()),
			shares:       make([][]byte, len(s.def.Servers)),
		}
		for si := range hist.shares {
			hist.shares[si] = rs.share.get(si).CT
		}
	}
	res, err := s.retire(rs.r, ro, rs.beaconEntry)
	if err != nil {
		return nil, err
	}
	rs.phase = rpDone
	out := &Output{}
	s.emitSpan(s.roundSpan(now, rs), out)
	if hist != nil {
		s.history[rs.r] = hist
		// Evict everything older than the retention window — but never
		// while an accusation shuffle is open: the accusation names its
		// round only when the shuffle finishes, and evicting it mid-session
		// squashes the accusation into an inconclusive verdict (and, under
		// a continuous disruptor, a re-accuse livelock). Rounds mostly hold
		// during blame, so the map outgrows RetainRounds by at most the
		// in-flight pipeline depth; the first post-verdict completion
		// sweeps the backlog.
		if s.blame == nil && rs.r >= uint64(s.def.Policy.RetainRounds) {
			floor := rs.r - uint64(s.def.Policy.RetainRounds)
			for rnd, h := range s.history {
				if rnd <= floor {
					s.bufs.put(h.ownCleartext)
					delete(s.history, rnd)
				}
			}
		}
	}
	return s.finishRound(now, out, rs.r, ro, wire.Encode(ro), res, "")
}

// finishRound is what follows a retirement at a server, however the
// round's certified output was come by — certified here (maybeOutput) or
// adopted from a peer (onPeerOutput; how = "adopted, " marks its events),
// appending to out (which holds a certified round's span, so it precedes
// any younger round's): the output goes to the attached clients and into
// the retained set, the round's state leaves the pipeline, the α
// baseline and the boundary and blame gates update, and the next head
// proceeds (retireResume).
func (s *Server) finishRound(now time.Time, out *Output, r uint64, ro *RoundOutput, body []byte, res *dcnet.RoundResult, how string) (*Output, error) {
	// For an adopted round the forward is what unwedges our clients: the
	// peers certified it while we were down, and clients consume outputs
	// strictly in round order (the output is self-authenticating).
	if err := s.broadcastClients(MsgOutput, r, body, out); err != nil {
		return nil, err
	}
	// Retain the certified output for catchUp: a peer that was down when
	// the certs flew adopts it (onPeerOutput), a client behind the group
	// follows it. Unlike history this covers failed rounds, which both
	// must also sequence through.
	s.outMsgs[r] = body
	if retain := uint64(s.def.Policy.RetainRounds); r >= retain {
		delete(s.outMsgs, r-retain)
	}
	// The accumulator's job ends with the round, and so does the honest
	// share's (what was revealed lives on in the share message's body);
	// recycle both. (Raw ciphertexts stay in rs.subs/cts for blame
	// evidence.) An unconsumed prefetch (failed or adopted round, or
	// participation below the adjustment break-even) is reaped here.
	if rs := s.rounds[r]; rs != nil {
		s.bufs.put(rs.ctAcc)
		rs.ctAcc = nil
		s.bufs.put(rs.myShare)
		rs.myShare = nil
		s.reapPrefetch(rs)
		delete(s.rounds, r)
	}
	s.prevCount = int(ro.Count)
	// Epoch boundary: the roster phase runs before the boundary round
	// starts (after any pending blame session), applying this epoch's
	// membership churn through a certified roster update. Gate A stops
	// opening rounds the moment rosterDue is set, so the pipeline
	// drains; the roster phase itself starts when it has.
	if s.epochBoundary(s.head()) {
		s.rosterDue = true
	}
	detail := fmt.Sprintf("%sparticipation %d", how, ro.Count)
	if ro.Failed {
		out.Events = append(out.Events, Event{Kind: EventRoundFailed, Round: r, Detail: detail})
	} else {
		out.Events = append(out.Events, Event{Kind: EventRoundComplete, Round: r, Detail: detail})
		s.reportRetired(r, res, out)
		// Accusations run before any due roster phase: a verdict reached
		// now still makes this boundary's roster update. The shuffle
		// itself waits for the pipeline to drain — younger rounds were
		// composed before anyone saw the request and complete normally.
		if res.ShuffleRequested && !s.blameDue {
			s.blameDue, s.blameHold = true, s.nextOpen
		}
	}
	if err := s.retireResume(now, out); err != nil {
		return nil, err
	}
	return out, nil
}

// retireResume decides what runs after a round retires. While younger
// rounds remain in flight, the new head (which may already hold every
// inventory, blocked only by Gate B) gets to proceed and the pipeline
// refills. Once drained, resumeRounds runs a deferred accusation
// shuffle or a due roster phase, or reopens windows.
func (s *Server) retireResume(now time.Time, out *Output) error {
	if len(s.rounds) == 0 {
		// The pipeline has drained: whatever runs next (accusation
		// shuffle, roster phase, or plain window reopening), rounds
		// restart with one in flight and ramp back up. Record the drain
		// point — it drives the per-round delta-queue depth, and
		// welcomes export it so joiners ramp identically.
		s.sched.Drained()
		s.persistSnapshot()
		return s.resumeRounds(now, out)
	}
	s.persistSnapshot()
	if rs := s.rounds[s.head()]; rs != nil {
		if _, err := out.then(s.maybeCommit(now, rs)); err != nil {
			return err
		}
	}
	s.maybeOpenRounds(now, out)
	return nil
}

// roundSpan renders the round's phase timestamps as its span record,
// and logs the certification at Debug.
func (s *Server) roundSpan(now time.Time, rs *roundState) obs.RoundTrace {
	total := now.Sub(rs.start)
	s.log.Debug("round certified", "round", rs.r, "participation", len(rs.included),
		"failed", rs.failed, "total", total)
	t := obs.RoundTrace{
		Round:         rs.r,
		Attempts:      int(rs.attempt),
		Start:         rs.start,
		Pad:           rs.padDur,
		Combine:       rs.combineDur,
		Total:         total,
		Participation: len(rs.included),
		PrefetchHit:   rs.prefetchHit,
		Failed:        rs.failed,
		Depth:         rs.depthAtStart,
	}
	if !rs.windowClosed.IsZero() {
		t.Window = rs.windowClosed.Sub(rs.start)
	}
	if !rs.certifySent.IsZero() {
		t.Certify = now.Sub(rs.certifySent)
	}
	if n := s.expectedClients() - len(rs.included); n > 0 {
		t.Stragglers = n
	}
	return t
}

// violation wraps a protocol violation into an event output.
func (s *Server) violation(round uint64, err error) *Output {
	return &Output{Events: []Event{{Kind: EventProtocolViolation, Round: round, Detail: err.Error()}}}
}

// misbehave records an attributed protocol violation against a roster
// member and emits EventMisbehavior ("<kind>: <cause>"). A client
// accumulating misbehaviorEscalateThreshold attributed violations is
// queued for removal in the next certified roster update — the
// guaranteed escalation path for disruption that never produces a
// single blame-traceable incident. from is always a roster member — a
// sender whose signature ingress verified, or a server named by index —
// so the ledger's memory is roster-bounded.
func (s *Server) misbehave(round uint64, from group.NodeID, kind string, err error) *Output {
	rec := s.misbehavior[from]
	if rec == nil {
		rec = &peerRecord{kinds: make(map[string]int)}
		s.misbehavior[from] = rec
	}
	rec.kinds[kind]++
	rec.total++
	s.log.Warn("misbehavior observed", "peer", from, "kind", kind,
		"count", rec.total, "round", round, "err", err)
	out := &Output{Events: []Event{{Kind: EventMisbehavior, Round: round, Culprit: from,
		Detail: kind + ": " + err.Error()}}}
	if rec.total >= misbehaviorEscalateThreshold && !rec.escalated {
		if ci := s.def.ClientIndex(from); ci >= 0 && s.churnEnabled() && !s.Excluded(ci) {
			rec.escalated = true
			s.pendingRemove[ci] = true
			s.log.Warn("misbehavior threshold crossed; client queued for certified removal",
				"peer", from, "violations", rec.total)
			out.Events = append(out.Events, Event{Kind: EventMisbehavior, Round: round,
				Culprit: from, Detail: fmt.Sprintf("escalated: %d violations, queued for removal", rec.total)})
		}
	}
	return out
}

// openExchanges empties a round's four exchanges for a fresh attempt.
func (s *Server) openExchanges(rs *roundState) {
	m := len(s.def.Servers)
	rs.inv.open(m)
	rs.commit.open(m)
	rs.share.open(m)
	rs.cert.open(m)
}

// waitingOn lists the servers whose contribution to the round's current
// server-server phase is missing: the empty slots of its exchange.
func (rs *roundState) waitingOn() []int {
	switch rs.phase {
	case rpInventory:
		return rs.inv.missing()
	case rpCommit:
		return rs.commit.missing()
	case rpShare:
		return rs.share.missing()
	case rpCertify:
		return rs.cert.missing()
	}
	return nil
}

// suspectWithholding attributes a wedged server-server phase to the
// peers whose contribution for the round's current phase is missing.
func (s *Server) suspectWithholding(rs *roundState) *Output {
	if rs.suspected == nil {
		rs.suspected = make(map[int]bool)
	}
	out := &Output{}
	for _, si := range rs.waitingOn() {
		if si == s.idx || rs.suspected[si] {
			continue
		}
		rs.suspected[si] = true
		out.merge(s.misbehave(rs.r, s.def.Servers[si].ID, "withholding",
			fmt.Errorf("server %d silent in round %d phase %d after %d retries", si, rs.r, rs.phase, rs.casts.n)))
	}
	return out
}

// sortedKeys returns the sorted keys of an int-keyed map.
func sortedKeys[V any](m map[int]V) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}
