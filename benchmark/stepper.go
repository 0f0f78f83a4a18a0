package main

import (
	"bufio"
	"container/heap"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"dissent/internal/beacon"
	"dissent/internal/core"
	"dissent/internal/crypto"
	"dissent/internal/group"
	"dissent/internal/store"
	"dissent/internal/transport"
)

// The traced run drives the same group on the sans-I/O core engines
// from one goroutine and times every call into a layer's public
// functions from outside. The clock is virtual — it advances only when
// no message is deliverable, to the earliest requested Timer, link
// arrival or record due time — and every engine's Rand is seeded, so
// the count rows repeat exactly for a seed.

const (
	// traceWarmRounds certified rounds after setup are stepped but not
	// measured (slots open, prefetch lanes fill).
	traceWarmRounds = 10
	// traceTailRounds extra rounds are stepped so that every span of the
	// last measured round (client outputs at pipeline depth 2) exists.
	traceTailRounds = 2
	// traceDrainRounds bounds the drain after the generator stops.
	traceDrainRounds = 200
	// pipeChunk bounds the bytes the loopback pipe keeps in the socket,
	// so a frame of any size crosses one TCP pair on one goroutine.
	pipeChunk = 32 << 10
)

// span is one timed call at a layer boundary.
type span struct {
	ID int `json:"id"`
	// Parent is the span whose interval contains this one (a store.put
	// inside a core.handle; a codec call inside a frame call); 0 = none.
	Parent int `json:"parent,omitempty"`
	// Cause is the core.handle / core.tick / core.start span whose
	// Output.Send produced the envelope this span belongs to; 0 = none.
	Cause int    `json:"cause,omitempty"`
	Name  string `json:"name"`
	// Round is the shared identifier: the DC-net round number, or
	// "setup" for the scheduling shuffle's traffic.
	Round  string `json:"round"`
	Member string `json:"member"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// VirtualMs is the stepper's virtual clock when the span ran; for a
	// sim.link span Start/End are equal and LinkMs carries the injected
	// one-way delay instead.
	VirtualMs float64 `json:"virtual_ms"`
	LinkMs    float64 `json:"link_ms,omitempty"`
	Bytes     int     `json:"bytes,omitempty"`
	// Attributed marks a codec span placed inside the frame call that
	// performs it internally: its duration was measured on the same bytes
	// immediately beside the frame call.
	Attributed bool `json:"attributed,omitempty"`

	child int64 // nanoseconds covered by child spans
}

func (s *span) self() time.Duration { return time.Duration(s.End - s.Start - s.child) }

// tracedConfig is what a traced run needs beyond the workload.
type tracedConfig struct {
	Seed   uint64
	Rounds int
	OutDir string
}

// tracedResult carries the traced per-layer rows and the spans.
type tracedResult struct {
	layer map[string]float64
	spans []span
	// senders is the sender of every generated record, in order (the
	// seed-discipline test compares it across seeds).
	senders  []int
	firstCRC uint32
}

// simMember is one engine under the stepper.
type simMember struct {
	name     string
	id       group.NodeID
	isServer bool
	engine   core.Engine
	client   *core.Client
	timerAt  time.Time
	ready    bool
	lastRnd  string
	kv       *store.KV
}

// envelope is one message in flight.
type envelope struct {
	at     time.Time // virtual arrival
	seq    uint64
	sentAt time.Time
	to     *simMember
	msg    *core.Message
	cause  int
	round  string
}

type envQueue []*envelope

func (q envQueue) Len() int { return len(q) }
func (q envQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q envQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *envQueue) Push(x any)   { *q = append(*q, x.(*envelope)) }
func (q *envQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// stepper owns every engine, the virtual clock and the span log.
type stepper struct {
	w        Workload
	members  map[group.NodeID]*simMember
	servers  []*simMember // definition order
	clients  []*simMember
	everyone []*simMember // servers, then clients

	now   time.Time // virtual
	queue envQueue
	seq   uint64

	t0     time.Time // real origin of span times
	spans  []span
	inSpan int // the core span currently executing, for store.put parents

	pipe *loopPipe
	sid  transport.SessionID

	// Protocol progress seen at server 0, and exact counts per round.
	setupDone   bool
	setupCPU    time.Duration
	firstRound  uint64
	haveFirst   bool
	completed   int                  // certified rounds at server 0 after setup
	completeAt  map[uint64]time.Time // virtual completion time per round
	vectorBytes map[uint64]int       // round -> submitted vector length
	deliveredIn map[uint64]int       // round -> slots with data at the observer
	verifies    map[uint64]int
	signs       map[uint64]int
	verifyBytes map[uint64]int // Σ bytes hashed under verified signatures
	signBytes   map[uint64]int // Σ bytes hashed under produced signatures
	signedSizes []float64      // signed size of every delivered envelope
	msgs        map[uint64]int
	wireBytes   map[uint64]int
	frames      map[uint64]int

	// Load.
	seed      uint64
	oracle    *oracle
	observers [numObservers]*observer
	perSeq    []int
	nextID    uint64
	senders   []int
	firstCRC  uint32
	genStop   bool
	pick      *rand.Rand
	sched     *arrivals
	loadStart time.Time // virtual time the offered load began
	nextDue   time.Time // Sim open loop: next record's virtual due time
	ready     []int     // closed loop: senders whose record completed
}

func (st *stepper) clock() int64 { return int64(time.Since(st.t0)) }

func (st *stepper) virtualMs() float64 { return millis(st.now.Sub(virtualEpoch)) }

var virtualEpoch = time.Unix(1_000_000, 0)

// addSpan appends a finished span and charges its duration to its
// parent's child coverage.
func (st *stepper) addSpan(s span) int {
	s.ID = len(st.spans) + 1
	if s.VirtualMs == 0 {
		s.VirtualMs = st.virtualMs()
	}
	st.spans = append(st.spans, s)
	if s.Parent > 0 {
		st.spans[s.Parent-1].child += s.End - s.Start
	}
	return s.ID
}

// timedStore decorates the real on-disk KV: every Put is a store.put
// span under the core span that issued it.
type timedStore struct {
	kv *store.KV
	st *stepper
	m  *simMember
}

func (ts *timedStore) Put(bucket, key string, value []byte) error {
	t0 := ts.st.clock()
	err := ts.kv.Put(bucket, key, value)
	ts.st.addSpan(span{Name: "store.put", Parent: ts.st.inSpan, Round: ts.st.spanRound(ts.st.inSpan),
		Member: ts.m.name, Start: t0, End: ts.st.clock(), Bytes: len(value)})
	return err
}
func (ts *timedStore) Get(bucket, key string) ([]byte, bool) { return ts.kv.Get(bucket, key) }
func (ts *timedStore) List(bucket string) []string           { return ts.kv.List(bucket) }
func (ts *timedStore) Delete(bucket, key string) error       { return ts.kv.Delete(bucket, key) }

func (st *stepper) spanRound(id int) string {
	if id > 0 {
		return st.spans[id-1].Round
	}
	return "setup"
}

// loopPipe carries frames across one loopback TCP pair on the
// stepper's goroutine. WriteFrameSession hands it the frame; the bytes
// enter the socket in chunks as ReadFrameSession asks for them, so the
// socket buffers never fill and nothing blocks. Each socket write is a
// transport.write span nested in the transport.read span that pumped
// it, which keeps the two layers' self times apart.
type loopPipe struct {
	w, r     net.Conn
	pending  []byte
	inflight int
	st       *stepper
	parent   int
	round    string
	member   string
	cause    int
}

func (p *loopPipe) Write(b []byte) (int, error) {
	p.pending = append(p.pending[:0], b...)
	return len(b), nil
}

func (p *loopPipe) Read(b []byte) (int, error) {
	if len(p.pending) > 0 && p.inflight < pipeChunk {
		n := min(len(p.pending), pipeChunk-p.inflight)
		t0 := p.st.clock()
		_, err := p.w.Write(p.pending[:n])
		p.st.addSpan(span{Name: "transport.write", Parent: p.parent, Cause: p.cause, Round: p.round,
			Member: p.member, Start: t0, End: p.st.clock(), Bytes: n})
		if err != nil {
			return 0, err
		}
		p.pending = p.pending[n:]
		p.inflight += n
	}
	n, err := p.r.Read(b)
	p.inflight -= n
	return n, err
}

func newLoopPipe(st *stepper) (*loopPipe, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	w, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	r, err := ln.Accept()
	if err != nil {
		w.Close()
		return nil, err
	}
	return &loopPipe{w: w, r: r, st: st}, nil
}

func (p *loopPipe) close() {
	p.w.Close()
	p.r.Close()
}

// roundOf is the shared identifier of a message's spans.
func roundOf(m *core.Message) string {
	switch m.Type {
	case core.MsgPseudonymSubmit, core.MsgPseudonymList, core.MsgShuffleStep, core.MsgSchedule, core.MsgScheduleCert:
		return "setup"
	}
	return strconv.FormatUint(m.Round, 10)
}

// verifyCount is the number of signature verifications the receiving
// engine performs for one inbound message: the envelope signature,
// plus any signatures carried in the body. A client checks a
// RoundOutput by its per-server certificate signatures and does not
// verify the envelope around them.
//
// It returns the count and the bytes hashed under those signatures.
func (st *stepper) verifyCount(m *core.Message, to *simMember) (n, bytes int) {
	switch m.Type {
	case core.MsgOutput:
		if p, err := core.DecodeRoundOutput(m.Body); err == nil {
			n, bytes = len(p.Sigs), len(p.Sigs)*len(p.Cleartext)
		}
		if to.isServer {
			n, bytes = n+1, bytes+signedLen(m)
		}
		return n, bytes
	case core.MsgCertify:
		return 2, signedLen(m) + st.vectorBytes[m.Round]
	case core.MsgRosterCert:
		return 2, 2 * signedLen(m)
	case core.MsgRosterUpdate:
		return 1 + len(st.servers), (1 + len(st.servers)) * signedLen(m)
	}
	return 1, signedLen(m)
}

// signCount is the number of signatures produced for one distinct
// outbound message: the envelope, plus the certificate signature a
// Certify or RosterCert body carries.
func (st *stepper) signCount(m *core.Message) (n, bytes int) {
	switch m.Type {
	case core.MsgCertify:
		return 2, signedLen(m) + st.vectorBytes[m.Round]
	case core.MsgRosterCert:
		return 2, 2 * signedLen(m)
	}
	return 1, signedLen(m)
}

// latency is the workload's injected one-way delay.
func (st *stepper) latency(from, to *simMember) time.Duration {
	if !st.w.Sim {
		return 0
	}
	if from.isServer && to.isServer {
		return st.w.ServerServer
	}
	return st.w.ClientServer
}

// consume processes one engine output produced by span id at member m.
func (st *stepper) consume(m *simMember, id int, out *core.Output) error {
	if out == nil {
		return nil
	}
	for _, ev := range out.Events {
		switch ev.Kind {
		case core.EventScheduleReady:
			m.ready = true
		case core.EventRoundFailed:
			return fmt.Errorf("round %d failed at %s: %s", ev.Round, m.name, ev.Detail)
		case core.EventProtocolViolation, core.EventMisbehavior, core.EventDisruptionDetected, core.EventBlameStarted:
			return fmt.Errorf("%s at %s in round %d: %s", ev.Kind, m.name, ev.Round, ev.Detail)
		case core.EventRoundComplete:
			if m == st.servers[0] && st.setupDone {
				if !st.haveFirst {
					st.firstRound, st.haveFirst = ev.Round, true
				}
				st.completed++
				st.completeAt[ev.Round] = st.now
				st.onRoundComplete()
			}
		}
	}
	for _, d := range out.Deliveries {
		var ob *observer
		switch {
		case m == st.servers[0]:
			ob = st.observers[obsServer]
		case m == st.clients[st.w.observer()]:
			ob = st.observers[obsClient]
			st.deliveredIn[d.Round]++
		}
		if ob != nil {
			ob.feed(d.Slot, d.Data, time.Now())
		}
	}
	var last *core.Message
	for _, env := range out.Send {
		to := st.members[env.To]
		if to == nil {
			return fmt.Errorf("%s sent %s to unknown member %s", m.name, env.Msg.Type, env.To)
		}
		if env.Msg != last && env.Msg.Sig != nil && roundOf(env.Msg) != "setup" {
			n, b := st.signCount(env.Msg)
			st.signs[env.Msg.Round] += n
			st.signBytes[env.Msg.Round] += b
		}
		last = env.Msg
		st.seq++
		heap.Push(&st.queue, &envelope{
			at: st.now.Add(st.latency(m, to)), seq: st.seq, sentAt: st.now,
			to: to, msg: env.Msg, cause: id, round: roundOf(env.Msg),
		})
	}
	if !out.Timer.IsZero() && (m.timerAt.IsZero() || out.Timer.Before(m.timerAt)) {
		m.timerAt = out.Timer
	}
	if !st.setupDone {
		all := true
		for _, c := range st.clients {
			all = all && c.ready
		}
		if all {
			st.setupDone = true
			for _, s := range st.spans {
				if strings.HasPrefix(s.Name, "core.") {
					st.setupCPU += time.Duration(s.End - s.Start)
				}
			}
			st.startLoad()
		}
	}
	return nil
}

// call runs one engine entry point as a core span.
func (st *stepper) call(m *simMember, name, round string, cause int, fn func() (*core.Output, error)) error {
	// Registered before the call so store.put spans can nest under it.
	id := st.addSpan(span{Name: name, Cause: cause, Round: round, Member: m.name})
	st.inSpan = id
	st.spans[id-1].Start = st.clock()
	out, err := fn()
	st.spans[id-1].End = st.clock()
	st.inSpan = 0
	if err != nil {
		return fmt.Errorf("engine error at %s in %s: %w", m.name, name, err)
	}
	if out == nil {
		out = &core.Output{}
	}
	if round == "" {
		// A tick has no inbound message: take the round from what it
		// produced, else the member's last one.
		r := m.lastRnd
		if len(out.Send) > 0 {
			r = roundOf(out.Send[0].Msg)
		} else if len(out.Events) > 0 && st.setupDone {
			r = strconv.FormatUint(out.Events[0].Round, 10)
		}
		st.spans[id-1].Round = r
		round = r
	}
	m.lastRnd = round
	return st.consume(m, id, out)
}

// deliver carries one envelope across the fabric and into its engine.
func (st *stepper) deliver(e *envelope) error {
	msg := e.msg
	rnd := msg.Round
	if e.round != "setup" {
		st.msgs[rnd]++
		if msg.Sig != nil {
			n, b := st.verifyCount(msg, e.to)
			st.verifies[rnd] += n
			st.verifyBytes[rnd] += b
			st.signedSizes = append(st.signedSizes, float64(signedLen(msg)))
		}
		if msg.Type == core.MsgClientSubmit {
			if _, seen := st.vectorBytes[rnd]; !seen {
				if p, err := core.DecodeClientSubmit(msg.Body); err == nil {
					st.vectorBytes[rnd] = len(p.CT)
				}
			}
		}
	}
	if st.w.Sim {
		// SimNet hands the *Message pointer across: no codec, no frames.
		t := st.clock()
		st.addSpan(span{Name: "sim.link", Cause: e.cause, Round: e.round, Member: e.to.name, Start: t, End: t,
			VirtualMs: millis(e.sentAt.Sub(virtualEpoch)), LinkMs: millis(e.at.Sub(e.sentAt))})
	} else {
		var err error
		if msg, err = st.overTCP(e); err != nil {
			return err
		}
	}
	return st.call(e.to, "core.handle."+msg.Type.String(), e.round, e.cause, func() (*core.Output, error) {
		return e.to.engine.Handle(st.now, msg)
	})
}

// signedLen is the length of the byte string a message signature
// covers: group ID, type, round, sender, length-prefixed body.
func signedLen(m *core.Message) int { return 32 + 1 + 8 + 8 + 4 + len(m.Body) }

// overTCP sends one envelope through the real codec and frame
// functions over the loopback pair and returns the decoded message.
func (st *stepper) overTCP(e *envelope) (*core.Message, error) {
	// The codec calls, timed on the same bytes the frame calls handle.
	t0 := st.clock()
	raw := core.EncodeMessage(e.msg)
	encDur := st.clock() - t0
	t0 = st.clock()
	if _, err := core.DecodeMessage(raw); err != nil {
		return nil, err
	}
	decDur := st.clock() - t0
	if e.round != "setup" {
		st.wireBytes[e.msg.Round] += len(raw)
		st.frames[e.msg.Round]++
	}

	p := st.pipe
	p.round, p.member, p.cause = e.round, e.to.name, e.cause
	base := span{Cause: e.cause, Round: e.round, Member: e.to.name, Bytes: len(raw)}

	w := base
	w.Name, w.Start = "transport.write", st.clock()
	if err := transport.WriteFrameSession(p, st.sid, e.msg); err != nil {
		return nil, err
	}
	w.End = st.clock()
	wid := st.addSpan(w)
	enc := base
	enc.Name, enc.Parent, enc.Attributed = "wire.encode", wid, true
	enc.Start, enc.End = w.Start, min(w.Start+encDur, w.End)
	st.addSpan(enc)

	r := base
	r.Name = "transport.read"
	rid := st.addSpan(r) // registered first so the pumped writes can nest under it
	p.parent = rid
	start := st.clock()
	_, _, msg, err := transport.ReadFrameSession(p)
	end := st.clock()
	p.parent = 0
	if err != nil {
		return nil, err
	}
	if len(p.pending) != 0 || p.inflight != 0 {
		return nil, errors.New("loopback pipe out of step with the frame reader")
	}
	st.spans[rid-1].Start, st.spans[rid-1].End = start, end
	dec := base
	dec.Name, dec.Parent, dec.Attributed = "wire.decode", rid, true
	lastChild := start
	for i := rid; i < len(st.spans); i++ {
		if st.spans[i].Parent == rid {
			lastChild = st.spans[i].End
		}
	}
	dec.Start, dec.End = max(end-decDur, lastChild), end
	st.addSpan(dec)
	return msg, nil
}

// --- load -------------------------------------------------------------

func (st *stepper) sendRecord(sender int) {
	r := &record{id: st.nextID, sender: sender, seq: st.perSeq[sender], length: st.w.RecordBytes}
	st.nextID++
	st.perSeq[sender]++
	var frame []byte
	frame, r.crc = buildRecord(st.seed, r.id, r.length)
	if r.id == 0 {
		st.firstCRC = r.crc
	}
	st.senders = append(st.senders, sender)
	st.oracle.add(r)
	st.clients[sender].client.Send(frame)
}

// startLoad begins the workload's offered load once setup completes.
func (st *stepper) startLoad() {
	switch {
	case st.w.ClosedLoop:
		for s := 0; s < st.w.Senders; s++ {
			st.sendRecord(s)
		}
	case st.w.Sim:
		st.loadStart = st.now
		st.nextDue = st.loadStart.Add(st.sched.next())
	}
}

// onRoundComplete releases the loopback open-loop schedule: one record
// every TraceEveryRounds certified rounds.
func (st *stepper) onRoundComplete() {
	if st.genStop || st.w.ClosedLoop || st.w.Sim {
		return
	}
	if st.completed%st.w.TraceEveryRounds == 0 {
		st.sendRecord(st.pick.IntN(st.w.Senders))
	}
}

// pumpLoad issues whatever load is due at the current virtual time.
func (st *stepper) pumpLoad() {
	if st.genStop || !st.setupDone {
		return
	}
	for len(st.ready) > 0 {
		s := st.ready[0]
		st.ready = st.ready[1:]
		st.sendRecord(s)
	}
	for st.w.Sim && !st.w.ClosedLoop && !st.nextDue.After(st.now) {
		st.sendRecord(st.pick.IntN(st.w.Senders))
		st.nextDue = st.loadStart.Add(st.sched.next())
	}
}

// --- main loop ----------------------------------------------------------

// step delivers one deliverable message, or advances the virtual clock
// to the next timer, arrival or due record and fires what is due.
func (st *stepper) step() error {
	st.pumpLoad()
	if st.queue.Len() > 0 && !st.queue[0].at.After(st.now) {
		return st.deliver(heap.Pop(&st.queue).(*envelope))
	}
	var next time.Time
	consider := func(t time.Time) {
		if !t.IsZero() && (next.IsZero() || t.Before(next)) {
			next = t
		}
	}
	if st.queue.Len() > 0 {
		consider(st.queue[0].at)
	}
	for _, m := range st.everyone {
		consider(m.timerAt)
	}
	if st.setupDone && !st.genStop && st.w.Sim && !st.w.ClosedLoop {
		consider(st.nextDue)
	}
	if next.IsZero() {
		return errors.New("stepper stalled: no message in flight and no timer requested")
	}
	if next.After(st.now) {
		st.now = next
	}
	for _, m := range st.everyone {
		if m.timerAt.IsZero() || m.timerAt.After(st.now) {
			continue
		}
		m.timerAt = time.Time{}
		if err := st.call(m, "core.tick", "", 0, func() (*core.Output, error) { return m.engine.Tick(st.now) }); err != nil {
			return err
		}
	}
	return nil
}

// seededGroup is a group whose keys come from the seed, so the member
// order — and with it every count — repeats. Keys sit in definition
// order (NewDefinition sorts members by ID).
type seededGroup struct {
	def     *group.Definition
	servers []*crypto.KeyPair // identity keys
	msgKeys []*crypto.KeyPair // message-shuffle keys, per server
	clients []*crypto.KeyPair
}

func seededKeys(w Workload, seed uint64) (*seededGroup, error) {
	policy := w.policy()
	mg, err := crypto.GroupByName(policy.MessageGroup)
	if err != nil {
		return nil, err
	}
	rnd := seedStream(seed, "keys", 0)
	byID := make(map[group.NodeID][2]*crypto.KeyPair) // identity key, message key
	gen := func(n int, withMsg bool) (pubs, msgPubs []crypto.Element, err error) {
		for i := 0; i < n; i++ {
			pair := [2]*crypto.KeyPair{}
			if pair[0], err = crypto.GenerateKeyPair(crypto.P256(), rnd); err != nil {
				return nil, nil, err
			}
			pubs = append(pubs, pair[0].Public)
			if withMsg {
				if pair[1], err = crypto.GenerateKeyPair(mg, rnd); err != nil {
					return nil, nil, err
				}
				msgPubs = append(msgPubs, pair[1].Public)
			}
			byID[group.IDFromKey(crypto.P256(), pair[0].Public)] = pair
		}
		return pubs, msgPubs, nil
	}
	sPubs, mPubs, err := gen(numServers, true)
	if err != nil {
		return nil, err
	}
	cPubs, _, err := gen(w.Clients, false)
	if err != nil {
		return nil, err
	}
	sg := &seededGroup{}
	if sg.def, err = group.NewDefinition("bench-"+w.Name, sPubs, mPubs, cPubs, policy); err != nil {
		return nil, err
	}
	for _, m := range sg.def.Servers {
		sg.servers = append(sg.servers, byID[m.ID][0])
		sg.msgKeys = append(sg.msgKeys, byID[m.ID][1])
	}
	for _, m := range sg.def.Clients {
		sg.clients = append(sg.clients, byID[m.ID][0])
	}
	return sg, nil
}

// runTraced performs one traced run of w.
func runTraced(w Workload, cfg tracedConfig) (res *tracedResult, err error) {
	sg, err := seededKeys(w, cfg.Seed)
	if err != nil {
		return nil, err
	}
	def := sg.def
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	st := &stepper{
		w: w, members: make(map[group.NodeID]*simMember),
		now: virtualEpoch, t0: time.Now(), sid: transport.SessionID(def.GroupID()),
		completeAt: make(map[uint64]time.Time), vectorBytes: make(map[uint64]int), deliveredIn: make(map[uint64]int),
		verifies: make(map[uint64]int), signs: make(map[uint64]int),
		verifyBytes: make(map[uint64]int), signBytes: make(map[uint64]int),
		msgs: make(map[uint64]int), wireBytes: make(map[uint64]int), frames: make(map[uint64]int),
		seed: cfg.Seed, oracle: &oracle{}, perSeq: make([]int, w.Clients),
		pick: newRand(cfg.Seed, "senders"), sched: newArrivals(cfg.Seed, w.Rate),
	}
	st.observers[obsServer] = newObserver(obsServer, st.oracle)
	st.observers[obsClient] = newObserver(obsClient, st.oracle)
	if w.ClosedLoop {
		st.oracle.onDone = func(r *record) { st.ready = append(st.ready, r.sender) }
	}
	if !w.Sim {
		if st.pipe, err = newLoopPipe(st); err != nil {
			return nil, err
		}
		defer st.pipe.close()
	}
	storeDir, err := os.MkdirTemp(cfg.OutDir, "trace-store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(storeDir)

	opts := func(m *simMember) (core.Options, error) {
		o := core.Options{
			Rand:          seedStream(cfg.Seed, "engine-"+m.name, 0),
			MessageGroup:  def.MsgGroup(),
			PipelineDepth: w.PipelineDepth,
		}
		if w.Store && m.isServer {
			kv, err := store.Open(filepath.Join(storeDir, m.name+".db"))
			if err != nil {
				return o, err
			}
			m.kv = kv
			ts := &timedStore{kv: kv, st: st, m: m}
			o.StateStore = ts
			// As the SDK does: the beacon chain rides the same store.
			bs, err := beacon.NewKVStore(ts, "beacon")
			if err != nil {
				return o, err
			}
			o.BeaconStore = bs
		}
		return o, nil
	}
	defer func() {
		for _, m := range st.servers {
			if m.kv != nil {
				m.kv.Close()
			}
		}
	}()
	for idx, kp := range sg.servers {
		m := &simMember{name: fmt.Sprintf("s%d", idx), id: def.Servers[idx].ID, isServer: true}
		o, err := opts(m)
		if err != nil {
			return nil, err
		}
		if m.engine, err = core.NewServer(def, kp, sg.msgKeys[idx], o); err != nil {
			return nil, err
		}
		st.members[m.id] = m
		st.servers = append(st.servers, m)
	}
	for idx, kp := range sg.clients {
		m := &simMember{name: fmt.Sprintf("c%d", idx), id: def.Clients[idx].ID}
		o, err := opts(m)
		if err != nil {
			return nil, err
		}
		if m.client, err = core.NewClient(def, kp, o); err != nil {
			return nil, err
		}
		m.engine = m.client
		st.members[m.id] = m
		st.clients = append(st.clients, m)
	}
	st.everyone = append(append([]*simMember(nil), st.servers...), st.clients...)

	// Servers start (and would be listening) before clients.
	for _, m := range st.everyone {
		if err := st.call(m, "core.start", "setup", 0, func() (*core.Output, error) { return m.engine.Start(st.now) }); err != nil {
			return nil, err
		}
	}
	target := traceWarmRounds + cfg.Rounds + traceTailRounds
	for st.completed < target {
		if err := st.step(); err != nil {
			return nil, fmt.Errorf("after %d rounds: %w", st.completed, err)
		}
	}
	// Drain: no new records; step until both observers hold everything.
	st.genStop = true
	for limit := st.completed + traceDrainRounds; st.oracle.outstanding() > 0 && st.completed < limit; {
		if err := st.step(); err != nil {
			return nil, fmt.Errorf("draining after %d rounds: %w", st.completed, err)
		}
	}
	attempted, failed, violation := st.oracle.verdict()
	if violation != "" || failed > 0 {
		return nil, fmt.Errorf("output oracle: %d of %d records failed: %s", failed, attempted, violation)
	}

	res = &tracedResult{spans: st.spans, senders: st.senders, firstCRC: st.firstCRC}
	res.layer, err = st.aggregate(cfg.Rounds)
	if err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(cfg.OutDir, "trace-"+w.Name+".jsonl"), st.spans); err != nil {
		return nil, err
	}
	return res, nil
}

// writeSpans writes the in-memory span log as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
