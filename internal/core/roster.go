package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"dissent/internal/beacon"
	"dissent/internal/crypto"
	"dissent/internal/group"
	"dissent/internal/wire"
)

// Membership churn: expulsions, re-admissions, and new joiners become a
// first-class, beacon-anchored epoch transition. While rounds run,
// servers accumulate pending churn — blame verdicts and operator Expel
// calls queue removals, JoinRequests (gated by the admission policy)
// queue admissions. At every BeaconEpochRounds boundary the servers
// pause rounds briefly and run the roster phase:
//
//	propose:  each server broadcasts its pending admissions/removals
//	certify:  all M proposals are unioned into one canonical
//	          group.RosterUpdate (deterministically, so every server
//	          builds identical bytes) and each server signs it
//	apply:    with all M signatures collected, every replica applies
//	          the certified update, grows the slot schedule for new
//	          members, re-derives the layout permutation from the
//	          beacon output plus the roster digest, and resumes rounds
//
// Clients know the epoch schedule, so at each boundary they hold their
// next submission until the certified MsgRosterUpdate arrives (exactly
// as they hold for MsgBlameDone during accusation shuffles). Roster
// versions increase by one per boundary — also across boundaries with
// no churn — so any replica can reject stale-version roster traffic
// outright. Mechanism (the versioned, hash-chained update; see
// internal/group/roster.go) is shared; policy (who to admit or expel,
// cooldowns) stays server-side.

// --- Payloads: each states its wire layout once, in Fields ------------

// JoinRequest asks a server to propose the sender for admission at the
// next epoch boundary. Expelled members seeking re-admission send it
// with an empty PubKey (their identity is already in the roster); new
// members embed their identity key, a pseudonym key to seed their slot,
// and optionally a dialable address for TCP fabrics.
type JoinRequest struct {
	Version uint64 // roster version known to the requester
	// Rejoin marks an expelled member's explicit request for
	// re-admission. A known member's request without it is only a
	// roster-sync probe (catch-up for a lost update) and must never
	// queue a re-admission — expelled clients probe too.
	Rejoin  bool
	PubKey  []byte // encoded identity key; empty for known members
	PseuKey []byte // encoded pseudonym slot key; new members only
	Addr    string // transport address; empty on address-less fabrics
	// SchedDigest carries an established member's post-apply schedule
	// digest for its Version (dcnet.Schedule.Digest captured right after
	// the version's roster update was applied). Empty when the member
	// holds no apply-point digest (fresh joiner, pre-churn session). A
	// server that retains the digest for that version compares: mismatch
	// means the member's replica silently diverged, and chain replay
	// would grow a wrong layout — it gets a certified snapshot re-sync
	// instead.
	SchedDigest []byte
}

// Fields lays out the payload.
func (p *JoinRequest) Fields(c *wire.Codec) {
	c.U64(&p.Version)
	c.Bool(&p.Rejoin)
	c.Bytes(&p.PubKey)
	c.Bytes(&p.PseuKey)
	c.String(&p.Addr)
	c.Bytes(&p.SchedDigest)
}

// RosterPropose is one server's pending churn for the upcoming version.
type RosterPropose struct {
	Version uint64
	Admit   []group.RosterMember
	Remove  []group.NodeID
}

// Fields lays out the payload.
func (p *RosterPropose) Fields(c *wire.Codec) {
	c.U64(&p.Version)
	group.RosterMembers(c, &p.Admit)
	group.NodeIDs(c, &p.Remove)
}

// RosterCert is one server's signature certifying the canonical update.
type RosterCert struct {
	Version uint64
	Sig     []byte
}

// Fields lays out the payload.
func (p *RosterCert) Fields(c *wire.Codec) {
	c.U64(&p.Version)
	c.Bytes(&p.Sig)
}

// RosterUpdateMsg is the MsgRosterUpdate transport body: the certified
// update plus the sender's post-apply schedule digest. The digest
// cannot live inside the certified update material (the proposer
// cannot predict the beacon head at apply time, and the group codec is
// strict), so it rides the server-signed transport wrapper instead —
// sufficient for divergence *detection*, since a mismatch only ever
// triggers a fully verified snapshot re-sync.
type RosterUpdateMsg struct {
	Update []byte // encoded certified group.RosterUpdate
	// SchedDigest is dcnet.Schedule.Digest() captured right after the
	// sender applied Update; empty when unrecorded (e.g. replay from a
	// store predating digest tracking).
	SchedDigest []byte
}

// Fields lays out the payload.
func (p *RosterUpdateMsg) Fields(c *wire.Codec) {
	c.Bytes(&p.Update)
	c.Bytes(&p.SchedDigest)
}

// JoinWelcome is the MsgSnapshot body: the replicated session state a
// member that is behind needs (Server.catchUp). Sched is the replica
// image (node.snapshot): the schedule with its output head and drain
// point — a snapshot captured mid-pipeline carries the donor's queued
// deltas inside it, so the member pops each at the same round as every
// established replica. The rest is what a snapshot adds to it: the full
// current client roster (so the member's definition replica catches up
// from genesis in one step) with a certified update as anchor — for a
// joiner the one that admits it — the slot key list, in which a member
// finds its slot by its pseudonym key, and the beacon chain head. It is
// signed by one server, a trust-on-join simplification relative to the
// fully certified RosterUpdate chain; the member independently verifies
// the embedded update.
type JoinWelcome struct {
	Version    uint64
	Digest     [32]byte // roster digest at Version
	Update     []byte   // encoded certified RosterUpdate; empty when none anchors the snapshot
	RosterKeys [][]byte // all client identity keys, definition order
	Expelled   []byte   // 0/1 per client, parallel to RosterKeys
	SlotKeys   [][]byte // pseudonym slot keys, slot order
	Sched      []byte   // schedule state (dcnet.Schedule.AppendState)
	BeaconHead []byte   // 32-byte chain head the joiner's replica resumes from
}

// Fields lays out the payload.
func (p *JoinWelcome) Fields(c *wire.Codec) {
	c.U64(&p.Version)
	c.Fixed(p.Digest[:])
	c.Bytes(&p.Update)
	c.ByteSlices(&p.RosterKeys)
	c.Bytes(&p.Expelled)
	c.ByteSlices(&p.SlotKeys)
	c.Bytes(&p.Sched)
	c.Bytes(&p.BeaconHead)
}

// --- Shared helpers ---------------------------------------------------

// churnEnabled reports whether epoch membership churn runs: it is
// anchored to the beacon epoch schedule, so it requires the beacon.
func (n *node) churnEnabled() bool { return n.def.Policy.BeaconEpochRounds > 0 }

// epochBoundary reports whether round is an epoch boundary — the round
// that begins a new epoch, before which the roster phase runs.
func (n *node) epochBoundary(round uint64) bool {
	return n.churnEnabled() && round > 0 && round%uint64(n.def.Policy.BeaconEpochRounds) == 0
}

// rosterPermSeed derives the layout-permutation seed applied with a
// roster change: the beacon chain head bound to the new roster digest,
// so the permutation over the enlarged slot set is unpredictable yet
// identical on every replica. The chain *head* — not Latest(), which
// is nil on a mid-session joiner whose rebound chain has no entries
// yet — agrees across established replicas and joiners alike.
func (n *node) rosterPermSeed(dig [32]byte) []byte {
	var beaconVal []byte
	if n.beaconChain != nil {
		h := n.beaconChain.Head()
		beaconVal = h[:]
	}
	return crypto.Hash("dissent/roster-perm", beaconVal, dig[:])
}

// ID returns the node's ID.
func (n *node) ID() group.NodeID { return n.id }

// Definition returns the node's current (roster-versioned) group
// definition. Callers must treat it as read-only.
func (n *node) Definition() *group.Definition { return n.def }

// RosterVersion returns the node's current roster version.
func (n *node) RosterVersion() uint64 { return n.def.Version }

// RosterDigest returns the node's current roster hash-chain head.
func (n *node) RosterDigest() [32]byte { return n.def.RosterDigest() }

// --- Server: pending churn and the roster phase -----------------------

// rosterState is one in-flight roster transition at a server: every
// server's proposal, then the canonical update they union into and every
// server's signature over it.
type rosterState struct {
	version uint64
	prop    exchange[*RosterPropose]
	update  *group.RosterUpdate
	cert    exchange[[]byte]
	casts   castLog // our proposal and certificate, rebroadcast while stuck
}

// Admit pre-approves an identity key (its canonical encoding) for
// admission: a JoinRequest bearing it is accepted even when the policy
// keeps OpenAdmission off. Admission still happens only through a
// certified roster update at the next epoch boundary.
func (s *Server) Admit(encodedPub []byte) {
	if s.allowlist == nil {
		s.allowlist = make(map[string]bool)
	}
	s.allowlist[string(encodedPub)] = true
}

// Expel queues a client for removal at the next epoch boundary. Unlike
// a blame verdict — which every server reaches independently and
// deterministically, so immediate exclusion stays consistent — an
// operator's Expel is known to this server alone, so the exclusion
// takes effect only when the certified roster update applies everywhere
// at once.
func (s *Server) Expel(id group.NodeID) error {
	ci := s.def.ClientIndex(id)
	if ci < 0 {
		return fmt.Errorf("core: %s is not a client of this group", id)
	}
	if s.def.Clients[ci].Expelled {
		return fmt.Errorf("core: client %s already expelled", id)
	}
	if !s.churnEnabled() {
		return errors.New("core: membership churn requires a nonzero BeaconEpochRounds")
	}
	s.pendingRemove[ci] = true
	return nil
}

// LatestRosterUpdate returns the most recently applied certified
// update, or nil before the first boundary.
func (s *Server) LatestRosterUpdate() *group.RosterUpdate { return s.lastRosterUpdate }

// snapshotMinInterval is the least time between two session snapshots
// (welcome or re-sync) a server sends one member. It equals the clients'
// first retry delay (joinProbeDelay), so honest retries pass.
const snapshotMinInterval = time.Second

// rosterLogCap bounds the in-memory certified-update mirror (one entry
// per epoch boundary). With a durable StateStore configured the full
// chain persists there, so members arbitrarily far behind still catch
// up by replay; without one, members behind the cap fall back to a
// certified snapshot re-sync instead of wedging.
const rosterLogCap = 64

// persistRosterUpdate records a certified update in the durable store:
// one record, the MsgRosterUpdate body catch-up sends for it — the
// update and its post-apply schedule digest. Persistence failures are
// logged, not fatal: the in-memory mirror still serves the hot path,
// and durability degrades rather than halting rounds.
func (s *Server) persistRosterUpdate(u *group.RosterUpdate, dig [32]byte) {
	if s.store == nil {
		return
	}
	rec := wire.EncodeRecord(&RosterUpdateMsg{Update: wire.Encode(u), SchedDigest: dig[:]})
	if err := s.store.Put(bucketRoster, versionKey(u.Version), rec); err != nil {
		s.log.Error("roster update persist failed", "version", u.Version, "err", err)
	}
}

// decodeRosterRecord reads one stored roster record: the certified
// update and its post-apply schedule digest.
func decodeRosterRecord(raw []byte) (*group.RosterUpdate, []byte, error) {
	var rec RosterUpdateMsg
	if err := wire.DecodeRecord(raw, &rec); err != nil {
		return nil, nil, err
	}
	u, err := group.DecodeRosterUpdate(rec.Update)
	if err != nil {
		return nil, nil, err
	}
	return u, rec.SchedDigest, nil
}

// rosterRecord returns the certified update for one roster version and
// its post-apply schedule digest (nil when unrecorded): from the
// in-memory mirror, else from the version's one durable record — so
// eviction from the mirror (rosterLogCap) never strands a member that
// is versions behind.
func (s *Server) rosterRecord(v uint64) (*group.RosterUpdate, []byte) {
	var dig []byte
	if d, ok := s.rosterDigests[v]; ok {
		dig = d[:]
	}
	if u := s.rosterLog[v]; u != nil || s.store == nil {
		return u, dig
	}
	raw, ok := s.store.Get(bucketRoster, versionKey(v))
	if !ok {
		return nil, dig
	}
	u, stored, err := decodeRosterRecord(raw)
	if err != nil {
		s.log.Error("stored roster update corrupt", "version", v, "err", err)
		return nil, dig
	}
	if dig == nil {
		dig = stored
	}
	return u, dig
}

// onJoinRequest validates and queues a join/rejoin request. A known
// member's request states its position — roster version, post-apply
// schedule digest, whether it still awaits its welcome — and is answered
// by catchUp first; a rejoin intent is queued only once the member is
// current (a retry re-asserts it after the catch-up). A new member's
// request was verified at ingress under the key its body names.
func (s *Server) onJoinRequest(now time.Time, m *Message) (*Output, error) {
	if !s.churnEnabled() {
		return s.violation(m.Round, errors.New("join request but churn is disabled by policy")), nil
	}
	if ci := s.def.ClientIndex(m.From); ci >= 0 {
		p, err := decode[JoinRequest](m.Body)
		if err != nil {
			return s.violation(m.Round, err), nil
		}
		out := &Output{}
		at := position{round: m.Round, version: p.Version, digest: p.SchedDigest, welcome: len(p.PubKey) > 0}
		if p.Rejoin && p.Version == s.def.Version && (s.Excluded(ci) || s.def.Clients[ci].Expelled) {
			s.pendingRejoin[ci] = true
		}
		return out, s.catchUp(now, m.From, at, out)
	}
	p, err := decode[JoinRequest](m.Body)
	if err != nil {
		return s.violation(m.Round, err), nil
	}
	if _, err := s.keyGrp.Decode(p.PseuKey); err != nil {
		return s.violation(m.Round, fmt.Errorf("join request pseudonym key: %w", err)), nil
	}
	if !s.def.Policy.OpenAdmission && !s.allowlist[string(p.PubKey)] {
		return &Output{Events: []Event{{Kind: EventProtocolViolation, Round: m.Round,
			Detail: fmt.Sprintf("admission denied for %s (closed admission, not pre-approved)", m.From)}}}, nil
	}
	s.pendingJoin[m.From] = p
	return &Output{}, nil
}

// resumeRounds restarts normal operation once the pipeline has drained
// (or a blame session closes, or a restore): a deferred accusation
// shuffle first — once every round it holds back behind is in, which a
// restore must first reopen — so a verdict still makes the boundary's
// roster update; then the roster phase when an epoch boundary is due;
// then the next round.
func (s *Server) resumeRounds(now time.Time, out *Output) error {
	if s.blameDue && s.nextOpen >= s.blameHold {
		s.blameDue = false
		_, err := out.then(s.startBlame(now))
		return err
	}
	if s.rosterDue {
		_, err := out.then(s.startRoster(now))
		return err
	}
	s.maybeOpenRounds(now, out)
	return nil
}

// proposal returns this server's proposal for the open roster version
// and its encoding: the one stored before a restart, else its pending
// churn under the re-admission cooldown policy, stored before it is
// cast. A restarted server must re-send the bytes its peers hold, or the
// two sides certify different updates. One without churn is not stored:
// the restore re-opens the roster phase before new churn can arrive, and
// the churn that survives a restart (a blame exclusion) would have been
// in it, so the rebuild is empty too.
func (s *Server) proposal() (*RosterPropose, []byte) {
	v := s.roster.version
	if s.store != nil {
		if raw, ok := s.store.Get(bucketProposal, snapshotKey); ok {
			var p RosterPropose
			if err := wire.DecodeRecord(raw, &p); err == nil && p.Version == v {
				return &p, raw[1:]
			}
		}
	}
	p := &RosterPropose{Version: v}
	for _, ci := range sortedKeys(s.pendingRemove) {
		p.Remove = append(p.Remove, s.def.Clients[ci].ID)
	}
	cooldown := uint64(s.def.Policy.ReadmitCooldownRounds)
	for _, ci := range sortedKeys(s.pendingRejoin) {
		if s.pendingRemove[ci] {
			continue
		}
		if at, ok := s.expelRound[ci]; ok && s.head() < at+cooldown {
			continue // not yet eligible; stays pending for a later boundary
		}
		p.Admit = append(p.Admit, group.RosterMember{
			PubKey: s.keyGrp.Encode(s.def.Clients[ci].PubKey),
		})
	}
	for _, id := range sortedIDKeys(s.pendingJoin) {
		req := s.pendingJoin[id]
		p.Admit = append(p.Admit, group.RosterMember{
			PubKey:  req.PubKey,
			PseuKey: req.PseuKey,
			Addr:    req.Addr,
		})
	}
	body := wire.Encode(p)
	if s.store != nil && (len(p.Admit) > 0 || len(p.Remove) > 0) {
		if err := s.store.Put(bucketProposal, snapshotKey, wire.EncodeRecord(p)); err != nil {
			s.log.Error("roster proposal persist failed", "version", v, "err", err)
		}
	}
	return p, body
}

// startRoster opens the roster phase for the upcoming epoch boundary.
func (s *Server) startRoster(now time.Time) (*Output, error) {
	s.rosterDue = false
	s.phase = phaseRoster
	s.roster = &rosterState{version: s.def.Version + 1}
	s.roster.prop.open(len(s.def.Servers))
	s.roster.cert.open(len(s.def.Servers))
	prop, body := s.proposal()
	out := &Output{}
	if err := s.castRoster(now, MsgRosterPropose, body, out); err != nil {
		return nil, err
	}
	s.roster.prop.put(s.idx, prop, nil)
	return out.then(s.maybeBuildUpdate(now))
}

// rosterTick rebroadcasts this server's proposal (and certificate,
// once built) while the roster phase is stuck waiting on peers: the
// receivers' exchanges drop a retransmit, so this is idempotent, and it restores
// liveness after a lost propose/cert frame. Retries follow the unified
// retransmission backoff, so a dead peer draws a decaying rebroadcast
// stream rather than a fixed-period storm.
func (s *Server) rosterTick(now time.Time) (*Output, error) {
	r := s.roster
	if s.phase != phaseRoster || r == nil {
		return &Output{}, nil
	}
	out := &Output{}
	s.recastServers(now, &r.casts, s.retrySeed^r.version, out)
	return out, nil
}

// castRoster broadcasts a roster-phase message to the peer servers and
// records it for rosterTick.
func (s *Server) castRoster(now time.Time, t MsgType, body []byte, out *Output) error {
	m, err := s.sign(t, s.head(), body)
	if err != nil {
		return err
	}
	s.sendCast(now, &s.roster.casts, s.retrySeed^s.roster.version, m, out)
	return nil
}

func (s *Server) onRosterPropose(now time.Time, m *Message, digest []byte) (*Output, error) {
	p, err := decode[RosterPropose](m.Body)
	if err != nil {
		return s.misbehave(s.head(), m.From, "malformed", err), nil
	}
	if p.Version == 0 {
		return s.misbehave(s.head(), m.From, "malformed", errors.New("roster proposal for version 0")), nil
	}
	if p.Version <= s.def.Version {
		// The peer is rebroadcasting a transition we already completed — its
		// copy of some cert was lost, so it still holds the version before.
		out := &Output{}
		return out, s.catchUp(now, m.From, position{round: m.Round, version: p.Version - 1}, out)
	}
	if s.phase != phaseRoster || s.roster == nil || p.Version > s.roster.version {
		// A peer reached the boundary before us; replay once we open our
		// own roster phase.
		return s.stashMsg(m, digest), nil
	}
	if out, ok := s.roster.prop.collect(s, s.head(), m, digest, p); !ok {
		return out, nil
	}
	return s.maybeBuildUpdate(now)
}

// maybeBuildUpdate runs once all proposals are in: union them into the
// canonical update (identical bytes on every server), sign, and
// broadcast the certification signature.
func (s *Server) maybeBuildUpdate(now time.Time) (*Output, error) {
	r := s.roster
	if r == nil || r.update != nil || !r.prop.full() {
		return &Output{}, nil
	}
	removeSet := make(map[group.NodeID]bool)
	for si := 0; si < len(s.def.Servers); si++ {
		for _, id := range r.prop.get(si).Remove {
			ci := s.def.ClientIndex(id)
			if ci < 0 || s.def.Clients[ci].Expelled {
				continue // invalid or redundant; dropped identically everywhere
			}
			removeSet[id] = true
		}
	}
	cooldown := uint64(s.def.Policy.ReadmitCooldownRounds)
	admitByID := make(map[group.NodeID]group.RosterMember)
	for si := 0; si < len(s.def.Servers); si++ {
		for _, m := range r.prop.get(si).Admit {
			pub, err := s.keyGrp.Decode(m.PubKey)
			if err != nil {
				continue
			}
			id := group.IDFromKey(s.keyGrp, pub)
			if removeSet[id] || s.def.ServerIndex(id) >= 0 {
				continue
			}
			if ci := s.def.ClientIndex(id); ci >= 0 {
				if !s.def.Clients[ci].Expelled && !s.Excluded(ci) {
					continue // already active
				}
				// The re-admission cooldown is group policy over
				// replicated state (expulsion rounds agree on every
				// server), so each server enforces it on the union — a
				// single server cannot short-circuit the cooldown for
				// the group.
				if at, ok := s.expelRound[ci]; ok && s.head() < at+cooldown {
					continue
				}
			} else if len(m.PseuKey) == 0 {
				continue // new members need a pseudonym key
			} else if _, err := s.keyGrp.Decode(m.PseuKey); err != nil {
				continue
			}
			if _, dup := admitByID[id]; !dup {
				admitByID[id] = m
			}
		}
	}
	update := &group.RosterUpdate{
		Version:    r.version,
		PrevDigest: s.def.RosterDigest(),
	}
	for _, id := range sortedIDKeys(removeSet) {
		update.Remove = append(update.Remove, id)
	}
	for _, id := range sortedIDKeys(admitByID) {
		update.Admit = append(update.Admit, admitByID[id])
	}
	sigBytes, err := group.SignRosterUpdate(update, s.grpID, s.kp, s.rand)
	if err != nil {
		return nil, err
	}
	r.update = update
	r.cert.put(s.idx, sigBytes, nil)
	out := &Output{}
	body := wire.Encode(&RosterCert{Version: r.version, Sig: sigBytes})
	if err := s.castRoster(now, MsgRosterCert, body, out); err != nil {
		return nil, err
	}
	return out.then(s.maybeApplyRoster(now))
}

func (s *Server) onRosterCert(now time.Time, m *Message, digest []byte) (*Output, error) {
	p, err := decode[RosterCert](m.Body)
	if err != nil {
		return s.misbehave(s.head(), m.From, "malformed", err), nil
	}
	if p.Version == 0 {
		return s.misbehave(s.head(), m.From, "malformed", errors.New("roster certificate for version 0")), nil
	}
	if p.Version <= s.def.Version {
		// Stuck peer rebroadcasting a completed transition (see
		// onRosterPropose).
		out := &Output{}
		return out, s.catchUp(now, m.From, position{round: m.Round, version: p.Version - 1}, out)
	}
	r := s.roster
	if s.phase != phaseRoster || r == nil || r.update == nil || p.Version > r.version {
		return s.stashMsg(m, digest), nil
	}
	si := s.def.ServerIndex(m.From)
	sig, err := crypto.DecodeSignature(s.keyGrp, p.Sig)
	if err != nil {
		return s.misbehave(s.head(), m.From, "malformed", err), nil
	}
	if err := crypto.Verify(s.keyGrp, s.def.Servers[si].PubKey, group.RosterSignContext,
		r.update.SignedBytes(s.grpID), sig); err != nil {
		return s.misbehave(s.head(), m.From, "bad-certificate", fmt.Errorf("server %d roster cert: %w", si, err)), nil
	}
	if out, ok := r.cert.collect(s, s.head(), m, digest, p.Sig); !ok {
		return out, nil
	}
	return s.maybeApplyRoster(now)
}

// onServerRosterUpdate handles a certified update replayed by a peer
// that completed a transition we are stuck in (our copy of a propose
// or cert frame was lost): the update carries every server's
// signature, so it can be verified and applied directly.
func (s *Server) onServerRosterUpdate(now time.Time, m *Message, digest []byte) (*Output, error) {
	p, err := decode[RosterUpdateMsg](m.Body)
	if err != nil {
		return s.violation(s.head(), err), nil
	}
	u, err := group.DecodeRosterUpdate(p.Update)
	if err != nil {
		return s.violation(s.head(), err), nil
	}
	if u.Version <= s.def.Version {
		return &Output{}, nil // already applied
	}
	if s.phase != phaseRoster || u.Version > s.def.Version+1 {
		return s.stashMsg(m, digest), nil
	}
	out := &Output{}
	if err := s.applyCertifiedRoster(now, u, out); err != nil {
		// A replayed update that fails verification is a peer fault,
		// not a local fatal: stay in the phase (retries continue).
		return s.violation(s.head(), err), nil
	}
	return out, nil
}

// maybeApplyRoster applies the fully certified update and resumes
// rounds (or a pending blame session).
func (s *Server) maybeApplyRoster(now time.Time) (*Output, error) {
	r := s.roster
	if r == nil || r.update == nil || !r.cert.full() {
		return &Output{}, nil
	}
	update := r.update
	update.Sigs = r.cert.values()
	out := &Output{}
	if err := s.applyCertifiedRoster(now, update, out); err != nil {
		return nil, err
	}
	return out, nil
}

// attachClients extends this server's per-client state — pairwise DC-net
// seed and upstream attachment — to def.Clients[from:].
func (s *Server) attachClients(def *group.Definition, from int) error {
	for ci := from; ci < len(def.Clients); ci++ {
		seed, err := s.pairSeed(def.Clients[ci].PubKey)
		if err != nil {
			return fmt.Errorf("core: client %d seed: %w", ci, err)
		}
		s.clientSeeds = append(s.clientSeeds, seed)
		if def.UpstreamServer(ci) == s.idx {
			s.myClients = append(s.myClients, ci)
		}
	}
	return nil
}

// admitRoster is the admission core every path that takes a certified
// roster update goes through — live apply and restore replay alike, so
// a restarted server can never have admitted differently from its peers:
// the definition the update produces, and for each member it appends its
// pairwise seed, its upstream attachment and the version that admitted
// it (what a lost welcome is re-sent from). The caller installs the
// returned definition: applyRoster live, a bare assignment on replay.
func (s *Server) admitRoster(u *group.RosterUpdate) (*group.Definition, error) {
	newDef, err := s.def.ApplyRosterUpdate(u)
	if err != nil {
		return nil, err
	}
	oldN := len(s.def.Clients)
	if err := s.attachClients(newDef, oldN); err != nil {
		return nil, err
	}
	for _, c := range newDef.Clients[oldN:] {
		s.joinedAt[c.ID] = u.Version
	}
	return newDef, nil
}

// applyCertifiedRoster applies one certified update at this server:
// admission (admitRoster) and the replica's move to the new roster
// (applyRoster), then slot keys for new members, exclusion bookkeeping,
// the client broadcast and welcomes for joiners; then the roster phase
// ends and rounds resume.
func (s *Server) applyCertifiedRoster(now time.Time, u *group.RosterUpdate, out *Output) error {
	oldN := len(s.def.Clients)
	newDef, err := s.admitRoster(u)
	if err != nil {
		return fmt.Errorf("core: certified roster update rejected locally: %w", err)
	}
	// The post-apply schedule digest anchors divergence detection
	// (catchUp) and rides every MsgRosterUpdate.
	dig := s.applyRoster(u, newDef, out)

	for _, id := range u.Remove {
		ci := newDef.ClientIndex(id)
		if _, ok := s.expelRound[ci]; !ok {
			s.expelRound[ci] = s.head()
		}
		delete(s.pendingRemove, ci)
		// A pending rejoin survives: for a blame-expelled client the
		// removal here merely formalizes the earlier verdict, and its
		// rejoin request stays queued behind the cooldown.
		out.Events = append(out.Events, Event{Kind: EventMemberExpelled, Round: s.head(), Culprit: id})
	}

	var welcomes []group.NodeID
	for _, m := range u.Admit {
		pub, err := s.keyGrp.Decode(m.PubKey)
		if err != nil {
			return fmt.Errorf("core: admitted key: %w", err)
		}
		id := group.IDFromKey(s.keyGrp, pub)
		ci := newDef.ClientIndex(id)
		if ci < oldN {
			// Re-admission: original seeds and slot survive.
			delete(s.expelRound, ci)
			delete(s.pendingRejoin, ci)
		} else {
			// New member (admitted by admitRoster): its slot key.
			pseu, err := s.keyGrp.Decode(m.PseuKey)
			if err != nil {
				return fmt.Errorf("core: joiner %s pseudonym key: %w", id, err)
			}
			s.slotKeys = append(s.slotKeys, pseu)
			delete(s.pendingJoin, id)
			if m.Addr != "" {
				out.NewPeers = append(out.NewPeers, PeerInfo{ID: id, Addr: m.Addr})
			}
			if newDef.UpstreamServer(ci) == s.idx {
				welcomes = append(welcomes, id)
			}
		}
		out.Events = append(out.Events, Event{Kind: EventMemberJoined, Round: s.head(), Culprit: id})
	}

	// Certified removals shrink the α-policy baseline (§3.7) with the
	// roster: a formally removed member must not count toward the
	// participation floor of the next round. Identical on every server,
	// since the update and exclusion set are.
	if expected := s.expectedClients(); s.prevCount > expected {
		s.prevCount = expected
	}
	s.lastRosterUpdate = u
	s.rosterLog[u.Version] = u
	if u.Version > rosterLogCap {
		delete(s.rosterLog, u.Version-rosterLogCap)
		delete(s.rosterDigests, u.Version-rosterLogCap)
	}
	s.rosterDigests[u.Version] = dig
	s.persistRosterUpdate(u, dig)
	s.persistSnapshot()
	if s.store != nil {
		// The version applied: its proposal is served no more.
		if err := s.store.Delete(bucketProposal, snapshotKey); err != nil {
			s.log.Error("roster proposal discard failed", "version", u.Version, "err", err)
		}
	}
	s.log.Info("roster update applied", "round", s.head(), "version", newDef.Version,
		"admitted", len(u.Admit), "removed", len(u.Remove))
	out.Events = append(out.Events, Event{Kind: EventRosterChanged, Round: s.head(),
		Detail: fmt.Sprintf("version %d (%d admitted, %d removed)", newDef.Version, len(u.Admit), len(u.Remove))})

	// Broadcast the certified update to attached clients (including the
	// joiners just added to myClients — they ignore it and wait for
	// their welcome, which follows on the same FIFO link).
	body := wire.Encode(&RosterUpdateMsg{Update: wire.Encode(u), SchedDigest: dig[:]})
	if err := s.broadcastClients(MsgRosterUpdate, s.head(), body, out); err != nil {
		return err
	}
	for _, id := range welcomes {
		if err := s.catchUp(now, id, position{round: s.head(), version: s.def.Version, welcome: true}, out); err != nil {
			return err
		}
	}
	s.roster = nil
	s.phase = phaseRunning
	s.maybeOpenRounds(now, out)
	return nil
}

// buildSnapshot assembles the session snapshot catchUp sends: the
// certified update u as the verifiable anchor (nil: none), the full
// roster, slot keys, replica image and beacon head.
func (s *Server) buildSnapshot(u *group.RosterUpdate) *JoinWelcome {
	w := &JoinWelcome{
		Version:  s.def.Version,
		Digest:   s.def.RosterDigest(),
		SlotKeys: s.encodedSlotKeys(),
	}
	if u != nil {
		w.Update = wire.Encode(u)
	}
	// Under pipelining a snapshot can capture the schedule mid-stream;
	// welcomes at admission always export an empty delta queue — Grow just
	// flushed it.
	w.Sched = s.snapshot()
	for _, c := range s.def.Clients {
		w.RosterKeys = append(w.RosterKeys, s.keyGrp.Encode(c.PubKey))
		if c.Expelled {
			w.Expelled = append(w.Expelled, 1)
		} else {
			w.Expelled = append(w.Expelled, 0)
		}
	}
	if s.beaconChain != nil {
		head := s.beaconChain.Head()
		w.BeaconHead = append([]byte(nil), head[:]...)
	}
	return w
}

// sortedIDKeys returns a NodeID-keyed map's keys in canonical order.
func sortedIDKeys[V any](m map[group.NodeID]V) []group.NodeID {
	ids := make([]group.NodeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		return bytes.Compare(ids[a][:], ids[b][:]) < 0
	})
	return ids
}

// --- Client: roster application, rejoin, joining ----------------------

// Expelled reports whether this client is currently expelled (by blame
// verdict or certified removal) and therefore not submitting.
func (c *Client) Expelled() bool { return c.expelled }

// RequestRejoin asks the client's upstream server to propose it for
// re-admission at the next eligible epoch boundary. The caller
// transmits the returned envelopes like any engine output.
func (c *Client) RequestRejoin(now time.Time) (*Output, error) {
	if !c.churnEnabled() {
		return nil, errors.New("core: membership churn requires a nonzero BeaconEpochRounds")
	}
	if !c.expelled {
		return nil, errors.New("core: client is not expelled")
	}
	body := wire.Encode(&JoinRequest{Version: c.def.Version, Rejoin: true})
	m, err := c.sign(MsgJoinRequest, c.round, body)
	if err != nil {
		return nil, err
	}
	return &Output{Send: []Envelope{{To: c.upstream, Msg: m}}}, nil
}

// onRosterUpdate applies a certified roster transition at the client.
func (c *Client) onRosterUpdate(now time.Time, m *Message) (*Output, error) {
	if c.joining && !c.ready {
		// A joiner's own admission arrives as a MsgSnapshot carrying the
		// same update plus the session state; the broadcast copy is
		// redundant for it.
		return &Output{}, nil
	}
	p, err := decode[RosterUpdateMsg](m.Body)
	if err != nil {
		return c.violation(err), nil
	}
	u, err := group.DecodeRosterUpdate(p.Update)
	if err != nil {
		return c.violation(err), nil
	}
	if u.Version <= c.def.Version {
		// Benign: a catch-up replay racing the slow original (both
		// apply-able copies of a version we already hold). Same silent
		// drop as the server-side handler.
		return &Output{}, nil
	}
	if u.Version != c.def.Version+1 {
		return c.violation(fmt.Errorf("roster update version %d rejected (current %d, chain gap)",
			u.Version, c.def.Version)), nil
	}
	newDef, err := c.def.ApplyRosterUpdate(u)
	if err != nil {
		return c.violation(err), nil
	}
	out := &Output{}
	dig := c.applyRoster(u, newDef, out)
	for _, id := range u.Remove {
		if id == c.id {
			// Emit only on the actual transition: a blame verdict may
			// have expelled us already (onBlameDone emitted then), and
			// this removal just formalizes it — applications looping on
			// EventMemberExpelled → Rejoin must not see a duplicate.
			if !c.expelled {
				out.Events = append(out.Events, Event{Kind: EventMemberExpelled, Round: c.round, Culprit: id})
			}
			c.expelled = true
			continue
		}
		out.Events = append(out.Events, Event{Kind: EventMemberExpelled, Round: c.round, Culprit: id})
	}
	for _, am := range u.Admit {
		pub, err := c.keyGrp.Decode(am.PubKey)
		if err != nil {
			continue
		}
		id := group.IDFromKey(c.keyGrp, pub)
		if id == c.id {
			c.expelled = false
		}
		out.Events = append(out.Events, Event{Kind: EventMemberJoined, Round: c.round, Culprit: id})
	}
	diverged := false
	if c.ready {
		// Keep the post-apply schedule digest — the replication point
		// every replica reaches with identical state — and compare it to
		// the server's copy riding the update. A mismatch means our
		// replica silently diverged before this boundary (e.g. we applied
		// a caught-up update before draining the rounds it presupposed);
		// submitting under the wrong layout would disrupt rounds, so we
		// hold and probe for a certified snapshot re-sync instead.
		c.applyDigest = dig[:]
		diverged = len(p.SchedDigest) == 32 && !bytes.Equal(p.SchedDigest, dig[:])
	}
	out.Events = append(out.Events, Event{Kind: EventRosterChanged, Round: c.round,
		Detail: fmt.Sprintf("version %d (%d admitted, %d removed)", newDef.Version, len(u.Admit), len(u.Remove))})

	c.awaitingRoster = false
	c.ctl.clear()
	if c.round > c.rosterDone {
		c.rosterDone = c.round
	}
	if diverged {
		out.Events = append(out.Events, Event{Kind: EventProtocolViolation, Round: c.round,
			Detail: fmt.Sprintf("schedule replica diverged at roster version %d (post-apply digest mismatch); requesting snapshot re-sync", newDef.Version)})
		// The catch-up probe carries our digest; sent at once, the server
		// answers it with a MsgSnapshot.
		c.awaitRoster(now, out)
		if err := c.sendUpstream(c.ctl.msgs, out); err != nil {
			return nil, err
		}
		return out, nil
	}
	if !c.ready || c.awaitingBlame || c.expelled {
		return out, nil
	}
	return out.then(c.submitRound(now))
}

// onSnapshot installs a session snapshot a server sent: the welcome
// that bootstraps a joiner once its admission applies, or the re-sync of
// an established replica that diverged or fell behind what the server
// can replay (catchUp).
func (c *Client) onSnapshot(now time.Time, m *Message) (*Output, error) {
	joiner := c.joining && !c.ready
	if c.pseudonym == nil || !joiner && !c.ready {
		return &Output{}, nil
	}
	w, out, err := c.installSnapshot(m, joiner)
	if w == nil {
		return out, err
	}
	head := c.head()
	if joiner {
		out = &Output{Events: []Event{
			{Kind: EventScheduleReady, Round: head, Detail: fmt.Sprintf("slot %d of %d (joined mid-session)", c.mySlot, len(w.SlotKeys))},
			{Kind: EventMemberJoined, Round: head, Culprit: c.id},
			{Kind: EventRosterChanged, Round: head, Detail: fmt.Sprintf("version %d (joined)", w.Version)},
		}}
	} else {
		out = &Output{Events: []Event{{Kind: EventReplicaResynced, Round: head,
			Detail: fmt.Sprintf("version %d, slot %d of %d", w.Version, c.mySlot, len(w.SlotKeys))}}}
	}
	if c.awaitingBlame || c.expelled {
		return out, nil
	}
	return out.then(c.submitRound(now))
}

// errStaleSnapshot marks a re-sync snapshot whose head is behind the
// outputs we already applied.
var errStaleSnapshot = errors.New("core: snapshot behind the applied outputs")

// installSnapshot verifies a server-signed session snapshot (a
// JoinWelcome body) and replaces the client's roster, schedule and
// beacon replicas with it. Every check — the replica image's own
// (node.restore) last — runs before the first assignment, so a rejected
// snapshot leaves the client exactly as it was. It returns the installed
// snapshot, or nil with what the handler should return instead: a
// violation, an empty output for a snapshot dropped as stale, or a fatal
// error.
//
// The snapshot is trusted from the server, but the roster transition it
// embeds is independently verifiable: the update must carry every
// server's signature. A snapshot without one — sent before the first
// certified update exists — may only restate our own roster version and
// digest. A joiner must additionally be admitted by the update. Every
// member finds its slot by its pseudonym key, which must sit in exactly
// one slot.
func (c *Client) installSnapshot(m *Message, joiner bool) (*JoinWelcome, *Output, error) {
	reject := func(why string) (*JoinWelcome, *Output, error) {
		return nil, c.violation(errors.New("snapshot " + why)), nil
	}
	w, err := decode[JoinWelcome](m.Body)
	if err != nil {
		return nil, c.violation(err), nil
	}
	if !joiner && w.Version < c.def.Version {
		return nil, &Output{}, nil // stale snapshot racing updates we already applied
	}
	if len(w.RosterKeys) != len(w.Expelled) {
		return reject("roster shape mismatch")
	}
	expelled := make([]bool, len(w.Expelled))
	for i, b := range w.Expelled {
		expelled[i] = b != 0
	}
	newDef, err := group.RebuildDefinition(c.def, w.Version, w.Digest, w.RosterKeys, expelled)
	if err != nil {
		return nil, c.violation(err), nil
	}
	var u *group.RosterUpdate
	if len(w.Update) > 0 {
		if u, err = group.DecodeRosterUpdate(w.Update); err != nil {
			return nil, c.violation(err), nil
		}
		// A re-sent snapshot captures a later version than the update it
		// embeds; the update's version can only lag.
		if u.Version > w.Version {
			return reject("update version ahead of its snapshot")
		}
		if err := c.def.VerifyRosterUpdateSigs(u); err != nil {
			return nil, c.violation(err), nil
		}
		// When the snapshot captures the update's own version, its digest is
		// fully derivable from the certified update — never trust the
		// snapshot's copy there, or a wrong digest would wedge us out of
		// every subsequent update's chain check. For later versions the
		// digest is trusted like the rest of the snapshot.
		if u.Version == w.Version && u.Digest(c.grpID) != w.Digest {
			return reject("digest does not match the certified update")
		}
	} else if w.Version != c.def.Version || w.Digest != c.def.RosterDigest() {
		return reject("without an update at another roster version or digest")
	}
	idx := newDef.ClientIndex(c.id)
	if idx < 0 {
		return reject("roster does not include us")
	}
	if joiner {
		myKey := c.keyGrp.Encode(c.kp.Public)
		if u == nil || !slices.ContainsFunc(u.Admit, func(am group.RosterMember) bool { return bytes.Equal(am.PubKey, myKey) }) {
			return reject("update does not admit us")
		}
	}
	myPseu := c.keyGrp.Encode(c.pseudonym.Public)
	mine := func(sk []byte) bool { return bytes.Equal(sk, myPseu) }
	slot := slices.IndexFunc(w.SlotKeys, mine)
	if slot < 0 || slices.ContainsFunc(w.SlotKeys[slot+1:], mine) {
		return reject("slot keys do not carry our pseudonym key exactly once")
	}
	var beaconHead beacon.Value
	if c.beaconChain != nil {
		if len(w.BeaconHead) != len(beaconHead) {
			return reject("beacon head malformed")
		}
		copy(beaconHead[:], w.BeaconHead)
	}
	serverSeeds, err := c.deriveServerSeeds(newDef)
	if err != nil {
		return nil, nil, err
	}

	// Every check of ours has passed; the replica image runs its own and
	// commits. A snapshot behind the outputs we already applied is stale;
	// otherwise the beacon chain goes first — its store is the one commit
	// step that can still fail.
	err = c.restore(w.Sched, func(head uint64) error {
		if !joiner && head < c.head() {
			return errStaleSnapshot
		}
		if c.beaconChain == nil {
			return nil
		}
		// Our chain replica (a joiner's is empty) may have diverged with
		// the schedule: discard it and resume from the snapshot's head,
		// trusted like the rest of the server-signed snapshot (round
		// outputs re-verify every appended entry).
		return c.beaconChain.ResetTrusted(beaconHead)
	})
	if errors.Is(err, errStaleSnapshot) {
		return nil, &Output{}, nil // racing outputs we already applied
	}
	if err != nil {
		return nil, c.violation(fmt.Errorf("snapshot: %w", err)), nil
	}
	// Recover queued payload bytes from in-flight rounds before dropping
	// them: their vectors were composed under the replaced layout and can
	// never match a certified output now. (A joiner has none.)
	for i := len(c.inflight) - 1; i >= 0; i-- { // newest first, so reclaimed bytes land oldest-first
		c.reclaimRound(c.inflight[i])
	}
	c.inflight = c.inflight[:0]
	c.reqPending = false
	c.awaitingRoster = false
	c.nextStreams = nil
	c.ctl.clear()
	c.setDef(newDef)
	c.idx = idx
	c.upstream = newDef.Servers[newDef.UpstreamServer(idx)].ID
	c.serverSeeds = serverSeeds
	c.mySlot = slot
	c.round = c.head()
	c.rosterDone = c.head()
	c.ready = true
	c.expelled = expelled[idx]
	c.applyDigest = nil
	if joiner && u.Version == w.Version {
		// Apply-time welcome: the donor snapshotted its schedule at the
		// admitting version's apply point, so the restored digest IS that
		// version's post-apply digest. Any other snapshot is mid-stream
		// and leaves no apply-point digest until the next boundary
		// (probes omit it).
		dig := c.sched.Digest()
		c.applyDigest = dig[:]
	}
	return w, nil, nil
}

// NewJoinerClient builds a client engine for a prospective member whose
// key is not (yet) in the group definition. Start sends a JoinRequest
// instead of a pseudonym submission; once a certified roster update
// admits the key, the upstream server's MsgSnapshot bootstraps the
// engine mid-session and it begins submitting like any client.
// advertiseAddr is the dialable address servers should attach for this
// node (empty on address-less fabrics like SimNet).
func NewJoinerClient(def *group.Definition, kp *crypto.KeyPair, advertiseAddr string, opts Options) (*Client, error) {
	if def.Policy.BeaconEpochRounds == 0 {
		return nil, errors.New("core: joining requires a group with membership churn (BeaconEpochRounds > 0)")
	}
	n, err := newNode(def, kp, opts, submitResendInterval)
	if err != nil {
		return nil, err
	}
	c := &Client{node: n, idx: -1, mySlot: -1}
	if def.ClientIndex(c.id) >= 0 || def.ServerIndex(c.id) >= 0 {
		return nil, errors.New("core: key already belongs to this group (use NewClient)")
	}
	c.joining = true
	c.joinAddr = advertiseAddr
	c.upstream = def.Servers[0].ID // contact point until admission assigns one
	return c, nil
}

// startJoin generates the pseudonym key, sends the join request and arms
// its retransmission.
func (c *Client) startJoin(now time.Time) (*Output, error) {
	pseu, err := crypto.GenerateKeyPair(c.keyGrp, c.rand)
	if err != nil {
		return nil, err
	}
	c.pseudonym = pseu
	// Every retry (Tick) carries the same pseudonym key: the admitting
	// slot must match the key generated here.
	body := wire.Encode(&JoinRequest{
		Version: c.def.Version,
		PubKey:  c.keyGrp.Encode(c.kp.Public),
		PseuKey: c.keyGrp.Encode(c.pseudonym.Public),
		Addr:    c.joinAddr,
	})
	c.castCtl(now, MsgJoinRequest, 0, body)
	out := &Output{Timer: c.ctl.dueAt}
	return out, c.sendUpstream(c.ctl.msgs, out)
}
