package core

import (
	"fmt"
	"math/big"
	"time"

	"dissent/internal/crypto"
	"dissent/internal/dcnet"
	"dissent/internal/group"
	"dissent/internal/shuffle"
	"dissent/internal/wire"
)

// The accusation protocol (§3.9), server side. A disruption victim
// signals via the shuffle-request field; the servers then run a
// general message shuffle in the mod-p group through which the victim
// anonymously transmits a signed accusation naming a witness bit.
// Tracing publishes the single PRNG bit every pair contributed at that
// position and pins the unmatched 1 on a client or server.

// blameWindowFactor scales Policy.WindowMin into the blame submission
// window and the rebuttal deadline.
const blameWindowFactor = 4

// AccusationMsg is what a disruption victim carries through the
// accusation shuffle: the disrupted round, its slot, the witness bit —
// slot-relative; servers translate it — and the slot's pseudonym
// signature over accusationDigest. The signature is unprefixed, at the
// key group's fixed signature length.
type AccusationMsg struct {
	Round     uint64
	Slot, Bit int
	Sig       []byte
}

// Fields lays out the accusation; a read fills Sig at its length.
func (p *AccusationMsg) Fields(c *wire.Codec) {
	c.U64(&p.Round)
	c.Int(&p.Slot)
	c.Int(&p.Bit)
	c.Fixed(p.Sig)
}

// newAccusationMsg is an accusation shaped for keyGrp: its signature
// field sized to read one.
func newAccusationMsg(keyGrp crypto.Group) *AccusationMsg {
	return &AccusationMsg{Sig: make([]byte, crypto.SignatureLen(keyGrp))}
}

// accusationLen is the wire length of an accusation inside the blame
// shuffle.
func accusationLen(keyGrp crypto.Group) int { return wire.Size(newAccusationMsg(keyGrp)) }

// accusationDigest is what the pseudonym key signs.
func accusationDigest(grpID [32]byte, round uint64, slot, bit int) []byte {
	return crypto.Hash("dissent/accusation", grpID[:],
		crypto.HashUint64(round), crypto.HashUint64(uint64(slot)), crypto.HashUint64(uint64(bit)))
}

// blameWidth is the ciphertext vector width of accusations in the
// message group.
func (s *Server) blameWidth() int {
	return shuffle.VecWidth(s.msgGrp, accusationLen(s.keyGrp))
}

// startBlame opens an accusation shuffle session: a message shuffle in
// the mod-p group, collecting for a bounded window that also closes the
// moment a peer's does.
func (s *Server) startBlame(now time.Time) (*Output, error) {
	s.phase = phaseBlame
	s.blameSession++
	s.blame = &blameState{
		session: s.blameSession,
		phase:   bpShuffle,
		start:   now,
		flagged: -1,
	}
	s.blame.trace.open(len(s.def.Servers))
	s.blame.shuf = s.openShuffle(shuffleSession{
		grp: s.msgGrp, kp: s.msgKP, pubs: s.def.ServerMsgPubKeys(), width: s.blameWidth(),
		id:      s.blameSession,
		submitT: MsgBlameSubmit, listT: MsgBlameList, stepT: MsgBlameStep,
		round:       s.head(),
		closeAt:     now.Add(blameWindowFactor * s.def.Policy.WindowMin),
		followPeers: true,
		finished:    s.finishBlameShuffle,
		// Nobody submitted, or nothing submitted decodes: close the
		// session with no verdict.
		empty: func(now time.Time) (*Output, error) { return s.blameVerdict(now, group.NodeID{}, 0) },
	})
	s.log.Debug("blame session opened", "round", s.head(), "blame_session", s.blameSession)
	out := &Output{
		Timer:  s.blame.shuf.closeAt,
		Events: []Event{{Kind: EventBlameStarted, Round: s.head(), Detail: fmt.Sprintf("session %d", s.blameSession)}},
	}
	body := wire.Encode(&BlameStart{Session: s.blameSession})
	if err := s.broadcastClients(MsgBlameStart, s.head(), body, out); err != nil {
		return nil, err
	}
	return out, nil
}

func (s *Server) blameTick(now time.Time) (*Output, error) {
	b := s.blame
	if b == nil {
		return &Output{}, nil
	}
	switch b.phase {
	case bpShuffle:
		return b.shuf.tick(now)
	case bpRebuttal:
		if !now.Before(b.rebutAt) {
			// No rebuttal: the flagged client is the disruptor.
			return s.blameVerdict(now, s.def.Clients[b.flagged].ID, 1)
		}
		return &Output{Timer: b.rebutAt}, nil
	default:
		return &Output{}, nil
	}
}

// finishBlameShuffle extracts accusations from the shuffled output and
// starts tracing the first valid one.
func (s *Server) finishBlameShuffle(now time.Time, outputs []shuffle.Vec) (*Output, error) {
	b := s.blame
	for _, v := range outputs {
		elems := make([]crypto.Element, len(v))
		for c, ct := range v {
			elems[c] = ct.C2
		}
		msg, err := shuffle.ExtractMessage(s.msgGrp, elems)
		if err != nil || len(msg) == 0 {
			continue // null message or garbage
		}
		a := newAccusationMsg(s.keyGrp)
		if wire.Decode(msg, a) != nil {
			continue
		}
		acc := s.validateAccusation(a)
		if acc == nil {
			continue
		}
		b.acc = acc
		break
	}
	if b.acc == nil {
		// No valid accusation survived (victim squashed or none sent):
		// resume rounds; the victim will re-request (§3.9).
		s.log.Info("blame shuffle carried no valid accusation",
			"round", s.head(), "blame_session", b.session)
		return s.blameVerdict(now, group.NodeID{}, 0)
	}
	b.phase = bpTrace
	out := &Output{}
	tb := s.buildTraceBits(b.acc)
	if err := s.broadcastServers(MsgTraceBits, s.head(), wire.Encode(tb), out); err != nil {
		return nil, err
	}
	b.trace.put(s.idx, tb, nil)
	return out.then(s.maybeEvaluateTrace(now))
}

// validateAccusation checks signature and witness-bit plausibility and
// translates the slot-relative bit into a global bit index.
func (s *Server) validateAccusation(a *AccusationMsg) *accusation {
	hist := s.history[a.Round]
	if hist == nil || a.Slot >= len(s.slotKeys) || a.Bit >= hist.layout.Lens[a.Slot]*8 {
		return nil
	}
	sig, err := crypto.DecodeSignature(s.keyGrp, a.Sig)
	if err != nil {
		return nil
	}
	if err := crypto.Verify(s.keyGrp, s.slotKeys[a.Slot], "dissent/accusation",
		accusationDigest(s.grpID, a.Round, a.Slot, a.Bit), sig); err != nil {
		return nil
	}
	globalBit := hist.layout.Off[a.Slot]*8 + a.Bit
	if dcnet.Bit(hist.cleartext, globalBit) != 1 {
		return nil // the claimed witness bit was not 1
	}
	return &accusation{round: a.Round, slot: a.Slot, bit: globalBit}
}

// buildTraceBits assembles this server's published bits for tracing.
func (s *Server) buildTraceBits(acc *accusation) *TraceBits {
	hist := s.history[acc.round]
	tb := &TraceBits{
		Session:   s.blame.session,
		ServerBit: dcnet.Bit(hist.shares[s.idx], acc.bit),
	}
	tb.ClientBits = make([]byte, len(hist.included))
	for pos, ci := range hist.included {
		bit := s.pad.StreamBit(s.clientSeeds[ci], acc.round, acc.bit)
		if s.testTraceBit != nil {
			bit = s.testTraceBit(acc.round, ci, bit)
		}
		tb.ClientBits[pos] = bit
	}
	for _, ci := range hist.directSets[s.idx] {
		sub := hist.subs[ci]
		p, _ := DecodeClientSubmit(sub.Body)
		tb.Direct = append(tb.Direct, int32(ci))
		tb.DirectBits = append(tb.DirectBits, dcnet.Bit(p.CT, acc.bit))
		tb.Evidence = append(tb.Evidence, EncodeMessage(sub))
	}
	return tb
}

func (s *Server) onTraceBits(now time.Time, m *Message, digest []byte) (*Output, error) {
	p, err := decode[TraceBits](m.Body)
	if err != nil {
		return s.misbehave(s.head(), m.From, "malformed", err), nil
	}
	b := s.blame
	if b == nil || b.phase < bpTrace || p.Session > b.session {
		if p.Session >= s.blameSession {
			return s.stashMsg(m, digest), nil
		}
		return &Output{}, nil
	}
	if b.phase != bpTrace || p.Session != b.session {
		return &Output{}, nil
	}
	if out, ok := b.trace.collect(s, s.head(), m, digest, p); !ok {
		return out, nil
	}
	return s.maybeEvaluateTrace(now)
}

// maybeEvaluateTrace runs the paper's three checks once all trace
// contributions are in:
//
//	(a) a server did not publish the full bit set;
//	(b) a server's published bits do not XOR to the share it sent;
//	(c) a client's ciphertext bit does not match the XOR of the
//	    per-server bits — ask the client for a rebuttal.
func (s *Server) maybeEvaluateTrace(now time.Time) (*Output, error) {
	b := s.blame
	if b.phase != bpTrace || !b.trace.full() {
		return &Output{}, nil
	}
	hist := s.history[b.acc.round]
	if hist == nil {
		// History never recorded — an adopted post-restart round (live
		// rounds stay pinned while a blame session is open): the
		// accusation cannot be traced. Close inconclusively; the victim
		// re-accuses on a traceable round.
		s.log.Info("blame trace lacks round history",
			"round", s.head(), "accused_round", b.acc.round, "blame_session", b.session)
		return s.blameVerdict(now, group.NodeID{}, 0)
	}
	k := b.acc.bit
	n := len(hist.included)
	pos := make(map[int]int, n) // client index -> position in included
	for p, ci := range hist.included {
		pos[ci] = p
	}

	directBit := make(map[int]byte, n) // client index -> c_i[k]
	for si := 0; si < len(s.def.Servers); si++ {
		tb := b.trace.get(si)
		// (a) completeness.
		if len(tb.ClientBits) != n ||
			len(tb.Direct) != len(hist.directSets[si]) ||
			len(tb.DirectBits) != len(tb.Direct) ||
			len(tb.Evidence) != len(tb.Direct) {
			return s.blameVerdict(now, s.def.Servers[si].ID, 2)
		}
		// Evidence: each direct entry must match the agreed dedup set
		// and carry the client's signed ciphertext with that bit.
		acc := byte(0)
		for idx, ci32 := range tb.Direct {
			ci := int(ci32)
			if ci != hist.directSets[si][idx] {
				return s.blameVerdict(now, s.def.Servers[si].ID, 2)
			}
			ev, err := DecodeMessage(tb.Evidence[idx])
			if err != nil || ev.Type != MsgClientSubmit || ev.Round != b.acc.round ||
				ev.From != s.def.Clients[ci].ID {
				return s.blameVerdict(now, s.def.Servers[si].ID, 2)
			}
			if _, err := s.verify(ev, s.def.Clients[ci].PubKey); err != nil {
				return s.blameVerdict(now, s.def.Servers[si].ID, 2)
			}
			sub, err := DecodeClientSubmit(ev.Body)
			if err != nil || k/8 >= len(sub.CT) {
				return s.blameVerdict(now, s.def.Servers[si].ID, 2)
			}
			bit := dcnet.Bit(sub.CT, k)
			if bit != tb.DirectBits[idx] {
				return s.blameVerdict(now, s.def.Servers[si].ID, 2)
			}
			directBit[ci] = bit
			acc ^= bit
		}
		// (b) the bits must recombine into the share it distributed.
		for _, cb := range tb.ClientBits {
			acc ^= cb
		}
		if acc != dcnet.Bit(hist.shares[si], k) {
			return s.blameVerdict(now, s.def.Servers[si].ID, 2)
		}
	}

	// (c) per-client consistency.
	for p, ci := range hist.included {
		var x byte
		for si := 0; si < len(s.def.Servers); si++ {
			x ^= b.trace.get(si).ClientBits[p]
		}
		cb, ok := directBit[ci]
		if !ok {
			// Unreachable: every included client is in exactly one
			// direct set.
			continue
		}
		// A bit of cleartext message in position k is legitimate only
		// for the accused slot's owner... who signed an accusation
		// saying it sent 0. Any mismatch flags the client.
		if x != cb {
			b.flagged = ci
			b.phase = bpRebuttal
			b.rebutAt = now.Add(blameWindowFactor * s.def.Policy.WindowMin)
			out := &Output{Timer: b.rebutAt}
			// The flagged client's upstream server relays the request.
			if s.def.UpstreamServer(ci) == s.idx {
				bits := make([]byte, len(s.def.Servers))
				for si := 0; si < len(s.def.Servers); si++ {
					bits[si] = b.trace.get(si).ClientBits[p]
				}
				req := &RebuttalRequest{
					Session:    b.session,
					AccRound:   b.acc.round,
					AccBit:     uint32(k),
					ServerBits: bits,
				}
				if err := s.sendTo(s.def.Clients[ci].ID, MsgRebuttalRequest, s.head(), wire.Encode(req), out); err != nil {
					return nil, err
				}
			}
			return out, nil
		}
	}
	// All bits consistent: impossible for a verified witness bit; emit
	// an inconclusive verdict defensively.
	return s.blameVerdict(now, group.NodeID{}, 0)
}

func (s *Server) onRebuttal(now time.Time, m *Message, digest []byte) (*Output, error) {
	b := s.blame
	if b != nil && b.phase < bpRebuttal {
		return s.stashMsg(m, digest), nil
	}
	if b == nil || b.phase != bpRebuttal {
		return &Output{}, nil
	}
	ci := s.def.ClientIndex(m.From)
	if ci != b.flagged {
		return &Output{}, nil
	}
	p, err := decode[Rebuttal](m.Body)
	if err != nil || p.Session != b.session {
		return &Output{}, nil
	}
	out := &Output{}
	// The upstream server relays the client's signed rebuttal to peers.
	if s.def.UpstreamServer(ci) == s.idx {
		s.sendServers(m, out)
	}

	return out.then(s.judgeRebuttal(now, ci, p))
}

// judgeRebuttal decides between the flagged client and the server it
// accuses of publishing a wrong pairwise bit.
func (s *Server) judgeRebuttal(now time.Time, ci int, p *Rebuttal) (*Output, error) {
	b := s.blame
	si := int(p.ServerIdx)
	if si < 0 || si >= len(s.def.Servers) {
		return s.blameVerdict(now, s.def.Clients[ci].ID, 1)
	}
	secret, err := s.keyGrp.Decode(p.Secret)
	if err != nil {
		return s.blameVerdict(now, s.def.Clients[ci].ID, 1)
	}
	proof := crypto.DLEQProof{C: new(big.Int).SetBytes(p.ProofC), Z: new(big.Int).SetBytes(p.ProofZ)}
	clientPub := s.def.Clients[ci].PubKey
	serverPub := s.def.Servers[si].PubKey
	ctx := crypto.Hash("dissent/rebuttal", s.grpID[:], crypto.HashUint64(uint64(ci)), crypto.HashUint64(uint64(si)))
	// Statement: log_G(clientPub) == log_serverPub(secret), i.e. the
	// revealed point is the true DH secret between the two keys.
	if err := crypto.VerifyDLEQ(s.keyGrp, serverPub, clientPub, secret, proof, ctx); err != nil {
		return s.blameVerdict(now, s.def.Clients[ci].ID, 1)
	}
	seed := crypto.SecretSeed(s.keyGrp, secret, clientPub, serverPub)
	trueBit := s.pad.StreamBit(seed, b.acc.round, b.acc.bit)
	hist := s.history[b.acc.round]
	if hist == nil {
		return s.blameVerdict(now, group.NodeID{}, 0)
	}
	var posCI int
	for p2, c := range hist.included {
		if c == ci {
			posCI = p2
			break
		}
	}
	if b.trace.get(si).ClientBits[posCI] != trueBit {
		// The server lied about the shared bit: server exposed.
		return s.blameVerdict(now, s.def.Servers[si].ID, 2)
	}
	// The server told the truth: the client's mismatch stands.
	return s.blameVerdict(now, s.def.Clients[ci].ID, 1)
}

// blameVerdict closes the blame session, applies expulsion, notifies
// clients, and resumes DC-net rounds.
func (s *Server) blameVerdict(now time.Time, culprit group.NodeID, verdict byte) (*Output, error) {
	b := s.blame
	out := &Output{}
	s.log.Info("blame verdict", "round", s.head(), "blame_session", b.session,
		"verdict", verdict, "culprit", culprit)
	if ci := s.def.ClientIndex(culprit); verdict == 1 && ci >= 0 {
		// Every server reaches this verdict deterministically from the
		// same trace data, so immediate exclusion stays consistent; the
		// removal is additionally recorded in the next epoch boundary's
		// certified roster update (and the expulsion round starts the
		// re-admission cooldown).
		s.pendingRemove[ci] = true
		if _, ok := s.expelRound[ci]; !ok {
			s.expelRound[ci] = s.head()
		}
	}
	detail := verdictDetail(verdict)
	out.Events = append(out.Events, Event{Kind: EventBlameVerdict, Round: s.head(),
		Culprit: culprit, Detail: detail})
	s.concludeBlame(b.start, now, detail, culprit)
	body := wire.Encode(&BlameDone{Session: b.session, Verdict: verdict, Culprit: culprit})
	if err := s.broadcastClients(MsgBlameDone, s.head(), body, out); err != nil {
		return nil, err
	}
	// A verdict can change the excluded set between round retirements;
	// a crash in that gap must not resurrect the culprit.
	s.persistSnapshot()
	s.blame = nil
	s.phase = phaseRunning
	if err := s.resumeRounds(now, out); err != nil {
		return nil, err
	}
	return out, nil
}
