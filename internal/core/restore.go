package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"dissent/internal/beacon"
	"dissent/internal/crypto"
	"dissent/internal/wire"
)

// Durable server state (see ARCHITECTURE.md "Durability & restart").
// The server persists a compact session snapshot into its StateStore at
// every round retirement and roster apply; RestoreFromStore rebuilds a
// freshly constructed engine from that snapshot plus the durable
// certified roster-update log, so a killed server resumes certifying
// rounds without operator intervention or a manual rejoin.
//
// What is NOT snapshotted, and why restart still converges:
//   - In-flight (unretired) rounds: certification requires every
//     server, so a surviving peer's copy of such a round is wedged at
//     its pre-crash attempt until we return. The restored server
//     reopens those rounds at a recovery attempt strictly above any
//     the α-policy can reach (openRound); peers abandon the wedged
//     attempt and rejoin ours, keeping the client submissions they
//     hold (escalateAttempt), so the round certifies over the union of
//     surviving submissions — or fails consistently, in which case
//     clients recover their payloads from the output and resubmit.
//     Rounds the peers certified without us (we crashed after signing)
//     come back as certified outputs we adopt wholesale (onPeerOutput).
//   - Round history and any in-flight blame session: accusations
//     against pre-restart rounds cannot be traced afterwards. A
//     disrupted slot owner simply re-accuses on a post-restart round.
//     What is kept is that a shuffle is due (BlameDue): the peers hold
//     back every round from BlameHold on until it has run, so the
//     restored server reopens only the rounds before that, and opens the
//     shuffle — the peers' session number, BlameSession+1 — once they
//     are in or straight away if none are.
//   - Pending join requests: joiners re-send on their retry timer.

// ServerSnapshot is the durable image of a server's session state at a
// round boundary — everything needed to resume that is not already
// derivable from the group definition, the stored roster-update chain,
// or the beacon chain's own store. Group names the group it was taken
// in, so a store opened by another group's server is refused. Sched is
// the replica image (node.snapshot) — the schedule with its output head,
// the resume point, and its drain point; the rest is what a server adds
// to it: the roster version to replay the update log to, the slot keys,
// the α baseline, the roster-phase and accusation-shuffle gates, the
// schedule certificate, the exclusions, and the two counters a restart
// must continue rather than reset: the blame session number and the
// restart count.
type ServerSnapshot struct {
	Group     [32]byte // the group ID (group.Definition.GroupID)
	Version   uint64   // roster version the snapshot was taken at
	PrevCount uint32   // previous round's participation (α baseline)
	RosterDue byte     // boundary crossed; roster phase pending
	BlameDue  byte     // shuffle requested; accusation shuffle pending…
	BlameHold uint64   // …and the first round it holds back
	CertKeys  [][]byte
	CertSigs  [][]byte // certified schedule; empty under trusted bootstrap
	SlotKeys  [][]byte // current slot pseudonym keys, slot order
	Sched     []byte   // schedule state (dcnet.Schedule.Fields)
	Expelled  []Expulsion
	// BlameSession is the last blame session opened (peers match sessions
	// by number); Restarts counts this server's restores (openRound),
	// raised to a peer's recovery attempt this server joined
	// (escalateAttempt).
	BlameSession int32
	Restarts     uint32
}

// Expulsion is one excluded client in a snapshot: its index and the
// round it was excluded at.
type Expulsion struct {
	Client int
	Round  uint64
}

// Fields lays out the snapshot.
func (p *ServerSnapshot) Fields(c *wire.Codec) {
	c.Fixed(p.Group[:])
	c.U64(&p.Version)
	c.U32(&p.PrevCount)
	c.U8(&p.RosterDue)
	c.U8(&p.BlameDue)
	c.U64(&p.BlameHold)
	c.ByteSlices(&p.CertKeys)
	c.ByteSlices(&p.CertSigs)
	c.ByteSlices(&p.SlotKeys)
	c.Bytes(&p.Sched)
	wire.List(c, &p.Expelled, 1<<20, 12, func(c *wire.Codec, e *Expulsion) {
		c.Int(&e.Client)
		c.U64(&e.Round)
	})
	c.I32(&p.BlameSession)
	c.U32(&p.Restarts)
}

// persistSnapshot writes the current session state to the durable
// store. Called at every round retirement and roster apply; a persist
// failure is logged but never fails the round — durability degrades,
// the protocol does not.
func (s *Server) persistSnapshot() {
	if s.store == nil || s.sched == nil {
		return
	}
	sn := &ServerSnapshot{
		Group:        s.grpID,
		Version:      s.def.Version,
		PrevCount:    uint32(s.prevCount),
		CertKeys:     s.certKeys,
		CertSigs:     s.certSigs,
		SlotKeys:     s.encodedSlotKeys(),
		BlameSession: s.blameSession,
		Restarts:     s.restarts,
	}
	sn.Sched = s.snapshot()
	if s.rosterDue {
		sn.RosterDue = 1
	}
	if s.blameDue {
		sn.BlameDue, sn.BlameHold = 1, s.blameHold
	}
	for _, ci := range sortedKeys(s.expelRound) {
		sn.Expelled = append(sn.Expelled, Expulsion{Client: ci, Round: s.expelRound[ci]})
	}
	if err := s.store.Put(bucketSnapshot, snapshotKey, wire.EncodeRecord(sn)); err != nil {
		s.log.Error("session snapshot persist failed", "round", s.head(), "err", err)
	}
}

// RestoreFromStore rebuilds a freshly constructed server engine from
// its durable store and resumes rounds. It must be called instead of
// Start (or InstallSchedule), on a Server built with the same genesis
// definition and keys as the crashed instance. Returns ok=false, with
// the engine untouched, when the store holds no snapshot — the caller
// then runs the normal setup path.
func (s *Server) RestoreFromStore(now time.Time) (out *Output, ok bool, err error) {
	if s.store == nil {
		return nil, false, nil
	}
	raw, have := s.store.Get(bucketSnapshot, snapshotKey)
	if !have {
		return nil, false, nil
	}
	if s.sched != nil || s.phase != phaseSetup || s.head() != 0 {
		return nil, false, errors.New("core: restore on an already-started engine")
	}
	sn := new(ServerSnapshot)
	if err := wire.DecodeRecord(raw, sn); err != nil {
		return nil, false, fmt.Errorf("core: session snapshot: %w", err)
	}
	if sn.Group != s.grpID {
		return nil, false, fmt.Errorf("core: session snapshot of group %x, this server runs group %x", sn.Group, s.grpID)
	}
	if sn.Version < s.def.Version {
		return nil, false, fmt.Errorf("core: snapshot version %d below definition version %d", sn.Version, s.def.Version)
	}

	// Replay the certified roster-update chain from the durable log to
	// rebuild the definition, pairwise seeds, attachments, and the
	// welcome bookkeeping. Each update is signature-verified against
	// the definition it extends, so a corrupted store cannot smuggle in
	// membership.
	for v := s.def.Version + 1; v <= sn.Version; v++ {
		ub, have := s.store.Get(bucketRoster, versionKey(v))
		if !have {
			return nil, false, fmt.Errorf("core: roster log truncated: missing version %d below snapshot version %d", v, sn.Version)
		}
		u, _, err := decodeRosterRecord(ub)
		if err != nil {
			return nil, false, fmt.Errorf("core: stored roster update %d: %w", v, err)
		}
		if err := s.def.VerifyRosterUpdateSigs(u); err != nil {
			return nil, false, fmt.Errorf("core: stored roster update %d: %w", v, err)
		}
		// The admission core alone: the snapshot carries the final schedule
		// and slot keys, and a replay welcomes, broadcasts and emits nothing.
		newDef, err := s.admitRoster(u)
		if err != nil {
			return nil, false, fmt.Errorf("core: stored roster update %d rejected: %w", v, err)
		}
		s.setDef(newDef)
		s.lastRosterUpdate = u
	}

	slotKeys := make([]crypto.Element, len(sn.SlotKeys))
	for i, kb := range sn.SlotKeys {
		k, err := s.keyGrp.Decode(kb)
		if err != nil {
			return nil, false, fmt.Errorf("core: snapshot slot key %d: %w", i, err)
		}
		slotKeys[i] = k
	}
	s.slotKeys = slotKeys
	s.certKeys, s.certSigs = sn.CertKeys, sn.CertSigs

	// The beacon chain reloaded its entries from its own store during
	// construction; only the session genesis binding is in-memory. A
	// certified-setup session rebinds to the schedule-derived genesis
	// (trusted: the chain is non-empty, and its entries were verified
	// when first appended); a trusted-bootstrap session never rebound.
	if s.beaconChain != nil && len(sn.CertKeys) > 0 {
		s.beaconChain.RebindTrusted(beacon.SessionGenesis(s.grpID, scheduleCertDigest(s.grpID, sn.CertKeys, sn.CertSigs)))
	}

	if err := s.restore(sn.Sched, nil); err != nil {
		return nil, false, fmt.Errorf("core: session snapshot: %w", err)
	}
	if s.sched.NumSlots() != len(slotKeys) {
		return nil, false, errors.New("core: session snapshot shape mismatch")
	}

	for _, e := range sn.Expelled {
		if e.Client >= len(s.def.Clients) {
			return nil, false, fmt.Errorf("core: snapshot expelled index %d out of range", e.Client)
		}
		s.expelRound[e.Client] = e.Round
		// An exclusion not yet formalized in the definition was pending
		// removal at the next boundary; re-queue it so the restart does
		// not strand the client excluded-but-never-removed.
		if !s.def.Clients[e.Client].Expelled {
			s.pendingRemove[e.Client] = true
		}
	}

	s.prevCount = int(sn.PrevCount)
	s.rosterDue = sn.RosterDue != 0
	s.blameDue, s.blameHold = sn.BlameDue != 0, sn.BlameHold
	s.blameSession = sn.BlameSession
	s.nextOpen = s.head()
	s.phase = phaseRunning
	s.setup.retire()
	// Every round that could have been in flight at the crash reopens as
	// a recovery round (see the file comment and openRound). Peers may
	// have certified our snapshot head without us — our own pre-crash
	// certify completed it — putting their heads one past ours, with in
	// flight rounds up to snapshot+depth; cover all of them. The restart
	// count is durable before any of them opens, so a crash during
	// recovery reopens above the attempt this restart reaches.
	head := s.head()
	s.recoverUntil = head + uint64(s.depth) + 1
	s.restarts = sn.Restarts + 1
	s.persistSnapshot()

	out = &Output{Events: []Event{{Kind: EventStateRestored, Round: head,
		Detail: fmt.Sprintf("version %d, round %d, %d slots", sn.Version, head, len(slotKeys))}}}
	s.log.Info("session state restored", "round", head, "version", sn.Version,
		"slots", len(slotKeys), "rosterDue", s.rosterDue)
	if err := s.resumeRounds(now, out); err != nil {
		return nil, false, err
	}
	return out, true, nil
}

// resetRoundAttempt rewinds a round to the collection state of a fresh
// attempt, discarding every server-phase artifact of the old one. The
// client submissions (subs/cts and the streaming accumulator) are kept:
// they re-enter through our new inventory, so surviving clients' data
// rides the recovery attempt instead of being dropped. The pooled
// cleartext buffer is deliberately released to GC rather than the pool —
// recovery is rare.
func (s *Server) resetRoundAttempt(rs *roundState, attempt int32) {
	rs.attempt = attempt
	rs.phase = rpCollect
	s.openExchanges(rs)
	s.bufs.put(rs.myShare)
	rs.myShare, rs.shareIncluded, rs.shareDirect = nil, nil, nil
	rs.shareMsg = nil
	rs.cleartext = nil
	rs.included = nil
	rs.directSets = nil
	rs.failed = false
	rs.casts.clear()
	rs.dropNonce()
	rs.nonces = make(map[int]crypto.Element)
	rs.certChal, rs.certDigest = nil, nil
}

// escalateAttempt abandons the attempt a round was wedged on and rejoins
// the strictly-higher recovery attempt a restarted peer reopened it at,
// with server si's inventory p, which ingress verified over digest, as
// the first peer contribution. Our window closes immediately — the clients we carry already submitted
// pre-crash, and the restarted peer's own window bounds how long its
// direct clients had to reach it.
//
// Before our inventory for that attempt goes out, the restart count is
// raised to the attempt's and stored: were we to crash and restore, our
// recovery attempt must lie strictly above every attempt we joined, or we
// would reopen this one with a second inventory the peers never take.
// An attempt so high that no restore could reopen above it (openRound's
// maxAttempts + restarts would overflow) is ignored: no honest server
// reaches it, and storing it would outlive the restart.
func (s *Server) escalateAttempt(now time.Time, rs *roundState, si int, p *Inventory, digest []byte) (*Output, error) {
	if p.Attempt == math.MaxInt32 {
		return &Output{}, nil
	}
	s.log.Info("round attempt escalated for peer recovery", "round", rs.r,
		"from", rs.attempt, "to", p.Attempt)
	if floor := uint32(p.Attempt - maxAttempts); floor > s.restarts {
		s.restarts = floor
		s.persistSnapshot()
	}
	s.resetRoundAttempt(rs, p.Attempt)
	out, err := s.closeWindow(now, rs)
	if err != nil {
		return nil, err
	}
	rs.inv.put(si, p, digest)
	return out.then(s.maybeCommit(now, rs))
}

// onPeerOutput adopts a certified round output forwarded by a peer
// (the catch-up answer to a stale inventory): the peers certified this round
// while we were down — our own pre-crash certify signature completed it
// — so our reopened copy can never certify again. The round
// certificate makes the output self-authenticating; adopting it replays
// exactly the retirement the crash interrupted, minus blame history
// (adopted rounds cannot be traced — see the file comment).
func (s *Server) onPeerOutput(now time.Time, m *Message, digest []byte) (*Output, error) {
	if s.phase != phaseRunning || m.Round < s.head() {
		return &Output{}, nil // already retired, or not in the round loop
	}
	if m.Round > s.head() {
		return s.stashMsg(m, digest), nil // adoption must run in round order
	}
	ro, cleartext, err := s.verifyOutput(m.Round, m.Body)
	if err != nil {
		return s.violation(m.Round, fmt.Errorf("adopted output: %w", err)), nil
	}
	res, err := s.retire(m.Round, ro, cleartext)
	if err != nil {
		return nil, err
	}
	s.log.Info("adopted certified output", "round", m.Round, "from", m.From,
		"failed", ro.Failed, "participation", ro.Count)
	return s.finishRound(now, &Output{}, m.Round, ro, m.Body, res, "adopted, ")
}
