package core

import (
	"fmt"
	"time"

	"dissent/internal/crypto"
	"dissent/internal/shuffle"
	"dissent/internal/wire"
)

// The paper has one verifiable-shuffle protocol and uses it twice: the
// key shuffle that fixes the slot schedule (§3.10) and the general
// message shuffle that carries accusations (§3.9). shuffleSession is the
// one driver of both across the M servers (ARCHITECTURE.md "Shuffle
// sessions"):
//
//	collect  the home server takes its clients' submissions, decoding
//	         each on arrival, until all are in or the window closes
//	lists    every server broadcasts the list it collected; the M lists
//	         are unioned (lowest server index keeps a duplicate client)
//	         in client-index order, undecodable entries dropped
//	stages   server j runs shuffle.Step when stage j comes up, everyone
//	         else checks it with shuffle.VerifyStep; a step that arrives
//	         early is stashed, a stale one dropped
//	done     finished(outputs) — or empty() when no input survived
//
// Setup and blame differ only in the data they open a session with and
// in what they do with its output. A session does not retransmit: a
// list or step lost to a peer stalls it (see the ARCHITECTURE section).
type shuffleSession struct {
	s *Server

	grp   crypto.Group
	kp    *crypto.KeyPair  // this server's key pair in grp
	pubs  []crypto.Element // every server's public key in grp, by index
	width int              // ciphertexts per input vector
	id    int32            // session id; 0 for scheduling
	// The session's message types, and the round its envelopes carry.
	submitT, listT, stepT MsgType
	round                 uint64
	// closeAt ends the collection window. followPeers closes it early when
	// a peer's list arrives: right for an accusation shuffle, whose window
	// is a bounded courtesy to clients that already hold the channel, and
	// wrong for setup, where a client slow to connect would lose its slot
	// for the whole session.
	closeAt     time.Time
	followPeers bool
	// finished receives the stripped output vectors of the last stage;
	// empty runs instead when the union holds no decodable input.
	finished func(now time.Time, outputs []shuffle.Vec) (*Output, error)
	empty    func(now time.Time) (*Output, error)

	subs    map[int]shuffleInput   // own clients' submissions, by client index
	closed  bool                   // window closed, own list sent
	list    exchange[*ShuffleList] // every server's list
	started bool                   // inputs fixed; stages running or done
	cur     []shuffle.Vec          // the current stage's input list
	stage   int                    // next stage (server index) to run
}

// shuffleInput is one accepted submission: the bytes as signed (what the
// list forwards) and the vector they decode to.
type shuffleInput struct {
	raw []byte
	vec shuffle.Vec
}

// openShuffle completes a session description into a live session.
func (s *Server) openShuffle(ss shuffleSession) *shuffleSession {
	ss.s = s
	ss.subs = make(map[int]shuffleInput)
	ss.list.open(len(ss.pubs))
	return &ss
}

// shuffleFor returns the live session a shuffle message of type t
// belongs to (nil when there is none) and the newest session id opened
// for that use so far, which tells a peer running ahead of us (stash its
// message) from a stale one (drop it).
func (s *Server) shuffleFor(t MsgType) (*shuffleSession, int32) {
	if ss := s.setup; t == ss.submitT || t == ss.listT || t == ss.stepT {
		return ss, 0
	}
	if s.blame != nil {
		return s.blame.shuf, s.blameSession
	}
	return nil, s.blameSession
}

// retire marks the session complete and releases what it held. Later
// traffic for it is recognisably stale.
func (ss *shuffleSession) retire() {
	ss.closed, ss.started, ss.stage = true, true, len(ss.pubs)
	ss.subs, ss.list, ss.cur = nil, exchange[*ShuffleList]{}, nil
}

// decodeInput parses one submitted ciphertext vector of the session's
// group and width.
func (ss *shuffleSession) decodeInput(raw []byte) (shuffle.Vec, error) {
	ctLen := 2 * ss.grp.ElementLen()
	if len(raw) != ss.width*ctLen {
		return nil, fmt.Errorf("shuffle input is %d bytes, want %d", len(raw), ss.width*ctLen)
	}
	v := make(shuffle.Vec, ss.width)
	for c := range v {
		ct, err := crypto.DecodeCiphertext(ss.grp, raw[c*ctLen:(c+1)*ctLen])
		if err != nil {
			return nil, fmt.Errorf("shuffle input ciphertext %d: %w", c, err)
		}
		v[c] = ct
	}
	return v, nil
}

// onShuffleSubmit takes one client's input while the window is open. The
// home server is where the client's signature ends, so it is where the
// input is validated: one that does not decode is booked against its
// signer and never forwarded.
func (s *Server) onShuffleSubmit(now time.Time, m *Message) (*Output, error) {
	ss, _ := s.shuffleFor(m.Type)
	if ss == nil || ss.closed {
		return &Output{}, nil
	}
	ci := s.def.ClientIndex(m.From)
	if s.excluded[ci] {
		return &Output{}, nil
	}
	var vec shuffle.Vec
	p, err := decode[ShuffleSubmit](m.Body)
	if err == nil {
		if p.Session != ss.id {
			return &Output{}, nil
		}
		vec, err = ss.decodeInput(p.CT)
	}
	if err != nil {
		return s.misbehave(ss.round, m.From, "malformed", fmt.Errorf("client %d %s: %w", ci, m.Type, err)), nil
	}
	if _, dup := ss.subs[ci]; dup {
		return &Output{}, nil
	}
	ss.subs[ci] = shuffleInput{raw: p.CT, vec: vec}
	// Early close: every attached, non-excluded client has submitted.
	for _, mine := range s.myClients {
		if _, ok := ss.subs[mine]; !ok && !s.excluded[mine] {
			return &Output{Timer: ss.closeAt}, nil
		}
	}
	return ss.close(now)
}

// tick closes the collection window at its deadline.
func (ss *shuffleSession) tick(now time.Time) (*Output, error) {
	if ss.closed {
		return &Output{}, nil
	}
	if now.Before(ss.closeAt) {
		return &Output{Timer: ss.closeAt}, nil
	}
	return ss.close(now)
}

// close ends collection and broadcasts this server's list.
func (ss *shuffleSession) close(now time.Time) (*Output, error) {
	if ss.closed {
		return &Output{}, nil
	}
	ss.closed = true
	list := &ShuffleList{Session: ss.id}
	for _, ci := range sortedKeys(ss.subs) {
		list.Clients = append(list.Clients, int32(ci))
		list.CTs = append(list.CTs, ss.subs[ci].raw)
	}
	out := &Output{}
	if err := ss.s.broadcastServers(ss.listT, ss.round, wire.Encode(list), out); err != nil {
		return nil, err
	}
	ss.list.put(ss.s.idx, list, nil)
	return out.then(ss.maybeStart(now))
}

func (s *Server) onShuffleList(now time.Time, m *Message, digest []byte) (*Output, error) {
	p, err := decode[ShuffleList](m.Body)
	if err != nil {
		return s.misbehave(s.head(), m.From, "malformed", err), nil
	}
	ss, newest := s.shuffleFor(m.Type)
	if ss == nil || p.Session > ss.id {
		if p.Session > newest {
			return s.stashMsg(m, digest), nil
		}
		return &Output{}, nil
	}
	if ss.started || p.Session != ss.id {
		return &Output{}, nil
	}
	if out, ok := ss.list.collect(s, ss.round, m, digest, p); !ok {
		return out, nil
	}
	if ss.followPeers && !ss.closed {
		return ss.close(now)
	}
	return ss.maybeStart(now)
}

// maybeStart fixes the shuffle input once every server's list is in
// (which includes our own, so our window has closed) and runs stage 0 if
// it is ours. Every server computes the same input from the same M
// signed lists: union in client-index order, the lowest server index
// keeping a client listed twice, entries that do not decode dropped.
func (ss *shuffleSession) maybeStart(now time.Time) (*Output, error) {
	s := ss.s
	if !ss.list.full() || ss.started {
		return &Output{}, nil
	}
	type entry struct {
		from int
		raw  []byte
	}
	byClient := make(map[int]entry)
	for si := range ss.pubs {
		list := ss.list.get(si)
		for k, ci := range list.Clients {
			if _, ok := byClient[int(ci)]; !ok {
				byClient[int(ci)] = entry{from: si, raw: list.CTs[k]}
			}
		}
	}
	out := &Output{}
	inputs := make([]shuffle.Vec, 0, len(byClient))
	for _, ci := range sortedKeys(byClient) {
		e := byClient[ci]
		if e.from == s.idx {
			inputs = append(inputs, ss.subs[ci].vec) // decoded on arrival
			continue
		}
		v, err := ss.decodeInput(e.raw)
		if err != nil {
			// An honest home server never forwards one: the entry goes,
			// identically at every server, and its forwarder is on record.
			out.merge(s.misbehave(ss.round, s.def.Servers[e.from].ID, "malformed",
				fmt.Errorf("server %d listed client %d: %w", e.from, ci, err)))
			continue
		}
		inputs = append(inputs, v)
	}
	if len(inputs) == 0 {
		return out.then(ss.empty(now))
	}
	ss.started, ss.cur, ss.stage = true, inputs, 0
	ss.subs, ss.list = nil, exchange[*ShuffleList]{}
	return out.then(ss.advance(now))
}

// advance runs this server's stage if it is up, and hands the output to
// finished once the last stage is through.
func (ss *shuffleSession) advance(now time.Time) (*Output, error) {
	s := ss.s
	out := &Output{}
	if ss.stage == s.idx {
		remaining := crypto.AggregateKeys(ss.grp, ss.pubs[s.idx:])
		step, err := shuffle.Step(ss.grp, ss.kp, remaining, ss.cur, s.rand)
		if err != nil {
			return nil, fmt.Errorf("core: shuffle session %d step: %w", ss.id, err)
		}
		body := wire.Encode(&ShuffleStep{Session: ss.id, Stage: int32(s.idx), Data: shuffle.EncodeStepOutput(ss.grp, step)})
		if err := s.broadcastServers(ss.stepT, ss.round, body, out); err != nil {
			return nil, err
		}
		ss.cur = step.Stripped(ss.grp)
		ss.stage++
	}
	if ss.stage < len(ss.pubs) {
		return out, nil
	}
	outputs := ss.cur
	ss.retire()
	return out.then(ss.finished(now, outputs))
}

func (s *Server) onShuffleStep(now time.Time, m *Message, digest []byte) (*Output, error) {
	p, err := decode[ShuffleStep](m.Body)
	if err != nil {
		return s.violation(s.head(), err), nil
	}
	ss, newest := s.shuffleFor(m.Type)
	if ss == nil || !ss.started || p.Session > ss.id || (p.Session == ss.id && int(p.Stage) > ss.stage) {
		// Ahead of us: its session has not opened here, our lists are not
		// all in, or an earlier stage is still on its way.
		if p.Session >= newest {
			return s.stashMsg(m, digest), nil
		}
		return &Output{}, nil
	}
	si := s.def.ServerIndex(m.From)
	if p.Session != ss.id || int(p.Stage) != si || int(p.Stage) != ss.stage {
		return &Output{}, nil
	}
	step, err := shuffle.DecodeStepOutput(ss.grp, p.Data, len(ss.cur), ss.width)
	if err != nil {
		return s.violation(s.head(), err), nil
	}
	remaining := crypto.AggregateKeys(ss.grp, ss.pubs[si:])
	if err := shuffle.VerifyStep(ss.grp, ss.pubs[si], remaining, ss.cur, step); err != nil {
		return s.violation(s.head(), fmt.Errorf("server %d shuffle step invalid (session %d): %w", si, ss.id, err)), nil
	}
	ss.cur = step.Stripped(ss.grp)
	ss.stage++
	return ss.advance(now)
}
