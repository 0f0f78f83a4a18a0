package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/big"
	"slices"
	"strings"
	"testing"
	"time"

	"dissent/internal/beacon"
	"dissent/internal/crypto"
	"dissent/internal/group"
)

// flakyBeaconStore fails its failAt-th Append (1-based) once; every other
// call goes to the wrapped store.
type flakyBeaconStore struct {
	beacon.Store
	failAt, appends, failures int
}

func (s *flakyBeaconStore) Append(e *beacon.Entry) error {
	s.appends++
	if s.appends == s.failAt {
		s.failures++
		return errors.New("injected beacon store failure")
	}
	return s.Store.Append(e)
}

// replicaState is what a retirement moves.
type replicaState struct {
	head, drain, schedRound uint64
	digest                  [32]byte
	beaconHead              beacon.Value
}

func stateOf(n *node) replicaState {
	st := replicaState{head: n.head, drain: n.drain, schedRound: n.sched.Round(), digest: n.sched.Digest()}
	if n.beaconChain != nil {
		st.beaconHead = n.beaconChain.Head()
	}
	return st
}

// retireProbe wraps a client and, on the Handle call that hits the
// injected store failure, compares the client before and after.
type retireProbe struct {
	*Client
	t     *testing.T
	store *flakyBeaconStore
	hit   bool
}

func (p *retireProbe) Handle(now time.Time, m *Message) (*Output, error) {
	c := p.Client
	if !c.ready {
		return c.Handle(now, m)
	}
	before, round, inflight := stateOf(&c.node), c.Round(), len(c.inflight)
	failures := p.store.failures
	out, err := c.Handle(now, m)
	if p.store.failures == failures {
		return out, err
	}
	p.hit = true
	if err != nil {
		p.t.Errorf("a failed beacon append is fatal at the client: %v", err)
	}
	if out == nil || len(out.Events) != 1 || out.Events[0].Kind != EventProtocolViolation {
		p.t.Errorf("a failed beacon append reports %+v, want one protocol violation", out)
	}
	if after := stateOf(&c.node); after != before {
		p.t.Errorf("a failed beacon append moved the replica:\n before %+v\n after  %+v", before, after)
	}
	if c.Round() != round || len(c.inflight) != inflight || inflight == 0 || c.inflight[0].r != m.Round {
		p.t.Errorf("a failed beacon append unqueued round %d: Round() %d→%d, %d→%d in flight",
			m.Round, round, c.Round(), inflight, len(c.inflight))
	}
	return out, err
}

// TestClientRetireIsAtomic: retirement performs its one fallible step —
// the beacon-store append — before it moves anything, so a store that
// fails once leaves the client exactly where it was, round still in
// flight; the submission resend then draws the retained certified output
// from the servers and the round retires normally. At a server the same
// failure is fatal, and equally leaves the replica unmoved.
func TestClientRetireIsAtomic(t *testing.T) {
	const failAt = 3
	policy := func(p *group.Policy) {
		p.BeaconEpochRounds = 8
		p.Alpha = 0.5 // rounds go on at 3/4 participation while the client is behind
	}

	t.Run("client", func(t *testing.T) {
		store := &flakyBeaconStore{Store: beacon.NewMemStore(), failAt: failAt}
		var probe *retireProbe
		f := newFixture(t, 3, 4, fixtureOpts{
			mutatePolicy: policy,
			clientOpts: func(idx int, o *Options) {
				if idx == 0 {
					o.BeaconStore = store
				}
			},
			wrapClient: func(idx int, c *Client) Engine {
				if idx != 0 {
					return nil
				}
				probe = &retireProbe{Client: c, t: t, store: store}
				return probe
			},
		})
		f.runUntilRound(failAt+6, 3_000_000)
		if !probe.hit {
			t.Fatalf("the injected failure never fired (%d appends)", store.appends)
		}
		c, srv := f.clients[0], f.servers[0]
		if c.head+uint64(c.depth) < srv.head {
			t.Fatalf("client stuck at round %d, servers at %d", c.head, srv.head)
		}
		if v := f.violations(); len(v) != 1 || v[0].Node != c.ID() {
			t.Errorf("violations = %+v, want only the client's injected one", v)
		}
		if srv.Participation() != len(f.clients) {
			t.Errorf("participation %d after recovery, want all %d clients", srv.Participation(), len(f.clients))
		}
		// Caught up, the client's replica is the group's: step until a
		// peer client stands at the same head and compare.
		for i := 0; i < 100_000 && f.clients[1].head != c.head; i++ {
			f.h.Net.Step()
		}
		if got, want := stateOf(&c.node), stateOf(&f.clients[1].node); got != want {
			t.Errorf("recovered replica differs from a peer's:\n got  %+v\n want %+v", got, want)
		}
	})

	t.Run("server", func(t *testing.T) {
		store := &flakyBeaconStore{Store: beacon.NewMemStore(), failAt: failAt}
		f := newFixture(t, 3, 4, fixtureOpts{
			mutatePolicy: policy,
			serverOpts: func(idx int, o *Options) {
				if idx == 0 {
					o.BeaconStore = store
				}
			},
		})
		f.h.StartAll()
		for i := 0; i < 200_000 && len(f.h.Errors) == 0; i++ {
			f.h.Net.Step()
		}
		if len(f.h.Errors) == 0 || !strings.Contains(f.h.Errors[0].Error(), "beacon append") {
			t.Fatalf("engine errors = %v, want the fatal beacon append", f.h.Errors)
		}
		s := f.servers[0]
		if s.head != failAt-1 || s.sched.Round() != s.head || s.beaconChain.Len() != failAt-1 {
			t.Errorf("failed retirement moved the server: head %d, schedule round %d, %d beacon entries; want %d, %d, %d",
				s.head, s.sched.Round(), s.beaconChain.Len(), failAt-1, failAt-1, failAt-1)
		}
		if rs := s.rounds[s.head]; rs == nil || rs.phase != rpCertify {
			t.Errorf("the unretired round left the pipeline: %+v", rs)
		}
	})
}

// mapStore is an in-memory StateStore a test can clone.
type mapStore map[string]map[string][]byte

func (s mapStore) Put(bucket, key string, value []byte) error {
	if s[bucket] == nil {
		s[bucket] = make(map[string][]byte)
	}
	s[bucket][key] = bytes.Clone(value)
	return nil
}

func (s mapStore) Get(bucket, key string) ([]byte, bool) {
	v, ok := s[bucket][key]
	return v, ok
}

func (s mapStore) List(bucket string) []string {
	return slices.Sorted(maps.Keys(s[bucket]))
}

func (s mapStore) Delete(bucket, key string) error {
	delete(s[bucket], key)
	return nil
}

func (s mapStore) clone() mapStore {
	c := make(mapStore)
	for b, kv := range s {
		c[b] = maps.Clone(kv)
	}
	return c
}

// lockstepStep is one row of the replica table: what happens before the
// head round retires, and how it retires.
type lockstepStep struct {
	name   string
	send   [3]int // payload bytes clients 0–2 queue before the round retires
	joiner int    // … and the joiner, once admitted
	fail   bool   // the head round certifies as failed
	arm    bool   // client 0 witnesses a disruption: it requests shuffles from then on
	join   bool   // a prospective member asks to join
	expel  bool   // the operator expels client 2 at server 0
}

// lockstepScript walks the replica through every kind of transition,
// with traffic throughout so the delta queue is never trivially empty.
// Epochs are five rounds; the failed round in the first epoch leaves the
// schedule's round counter behind the head from then on, and every
// rotation must still land on its boundary.
var lockstepScript = []lockstepStep{
	{name: "request bits", send: [3]int{200, 0, 30}},
	{name: "slots open", send: [3]int{0, 90, 0}},
	{name: "slots grow", send: [3]int{700, 0, 0}},
	{name: "traffic", send: [3]int{0, 300, 0}},
	{name: "failed round", fail: true},
	{name: "first boundary: empty roster update, rotation", send: [3]int{50, 0, 0}},
	{name: "join request", join: true, send: [3]int{0, 40, 0}},
	{name: "traffic", send: [3]int{400, 0, 0}},
	{name: "slots shrink"},
	{name: "idle"},
	{name: "second boundary: the roster grows", send: [3]int{120, 0, 0}, joiner: 80},
	{name: "expel", expel: true, send: [3]int{0, 64, 0}, joiner: 500},
	{name: "failed round mid-epoch", fail: true, send: [3]int{300, 0, 0}},
	{name: "traffic", send: [3]int{300, 64, 0}},
	{name: "traffic", send: [3]int{300, 0, 0}, joiner: 20},
	{name: "third boundary: a member is removed", send: [3]int{300, 0, 0}},
	{name: "disruption witnessed", arm: true, send: [3]int{300, 0, 0}},
	{name: "shuffle requested", send: [3]int{300, 0, 0}},
	{name: "pipeline drains for blame", send: [3]int{300, 200, 0}},
	{name: "ramp", send: [3]int{300, 0, 0}, joiner: 100},
	{name: "ramp", send: [3]int{100, 0, 0}},
	{name: "fourth boundary", send: [3]int{0, 100, 0}},
	{name: "ramp", send: [3]int{64, 0, 0}},
	{name: "steady"},
	{name: "steady", send: [3]int{10, 10, 0}},
	{name: "fifth boundary", send: [3]int{0, 0, 0}, joiner: 30},
	{name: "steady", send: [3]int{200, 0, 0}},
	{name: "steady"},
}

// lockstepWorld is a two-server group with the network, the pads and the
// round protocol taken out: the clients compose real vectors, the test
// XORs them into the round's cleartext, server 0 certifies it through
// maybeOutput (the test supplies both servers' certificate shares),
// server 1 adopts server 0's output through onPeerOutput, and each
// client follows its upstream's MsgOutput through onOutput. Roster and
// blame phases run for real between the two servers over a synchronous
// router. Forks are restored copies of server 1 (RestoreFromStore) and
// twins re-synced copies of client 0 (MsgSnapshot), one per step,
// each fed what its original receives from then on.
type lockstepWorld struct {
	t       *testing.T
	f       *fixture
	depth   int
	now     time.Time
	s0, s1  *Server
	s1store mapStore
	clients []*Client
	joiner  *Client
	pseu0   *crypto.KeyPair
	engines map[group.NodeID]Engine
	forks   []*Server
	twins   []*Client
	events  map[EventKind]int
	fedFork *Message // the last message copied to the forks
}

func (w *lockstepWorld) opts() Options {
	return Options{MessageGroup: crypto.ModP512Test(), PipelineDepth: w.depth}
}

// route delivers an engine's sends, and what those provoke, until the
// group is quiet. Submissions and the server-server round phases go
// nowhere — the script stands in for them — and nobody answers a blame
// shuffle, so sessions close empty.
func (w *lockstepWorld) route(from group.NodeID, out *Output, err error) {
	w.t.Helper()
	type hop struct {
		from group.NodeID
		env  Envelope
	}
	var queue []hop
	take := func(from group.NodeID, out *Output, err error) {
		if err != nil {
			w.t.Fatalf("engine %s: %v", from, err)
		}
		for _, ev := range out.Events {
			if ev.Kind == EventProtocolViolation {
				w.t.Fatalf("engine %s: protocol violation: %s", from, ev.Detail)
			}
			w.events[ev.Kind]++
		}
		for _, env := range out.Send {
			queue = append(queue, hop{from, env})
		}
	}
	take(from, out, err)
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		m := h.env.Msg
		switch m.Type {
		case MsgClientSubmit, MsgInventory, MsgCommit, MsgShare, MsgCertify, MsgBlameSubmit:
			continue
		}
		// A fork stands where server 1 does, passively: it hears server 0's
		// blame list, and takes the certified roster update server 0
		// broadcasts in place of running the roster phase.
		if h.from == w.s0.ID() && m != w.fedFork &&
			(m.Type == MsgBlameList || m.Type == MsgRosterUpdate && w.f.def.ServerIndex(h.env.To) < 0) {
			w.fedFork = m
			w.feedForks(m)
		}
		to := w.engines[h.env.To]
		o, err := to.Handle(w.now, m)
		take(h.env.To, o, err)
		if h.env.To == w.clients[0].ID() {
			for _, tw := range w.twins {
				if _, err := tw.Handle(w.now, m); err != nil {
					w.t.Fatalf("twin of client 0: %v", err)
				}
			}
		}
		if w.joiner != nil && w.joiner.Ready() && !slices.Contains(w.clients, w.joiner) {
			w.clients = append(w.clients, w.joiner)
		}
	}
}

func (w *lockstepWorld) feedForks(m *Message) {
	w.t.Helper()
	for i, fk := range w.forks {
		if _, err := fk.Handle(w.now, m); err != nil {
			w.t.Fatalf("fork %d: %s: %v", i, m.Type, err)
		}
	}
}

// tick moves time past every window deadline and ticks the servers, as
// often as the pipeline is deep: each tick closes the collecting round's
// window, which opens the next, so every server keeps as many rounds in
// flight as a live one does. It is also what closes a blame window.
func (w *lockstepWorld) tick() {
	w.t.Helper()
	for i := 0; i < w.depth; i++ {
		w.now = w.now.Add(w.f.def.Policy.HardTimeout + time.Second)
		for _, s := range []*Server{w.s0, w.s1} {
			out, err := s.Tick(w.now)
			w.route(s.ID(), out, err)
		}
		for i, fk := range w.forks {
			if _, err := fk.Tick(w.now); err != nil {
				w.t.Fatalf("fork %d tick: %v", i, err)
			}
		}
	}
}

// produce certifies the head round at server 0 over the cleartext the
// submitting clients' vectors XOR to, and returns server 0's MsgOutput.
func (w *lockstepWorld) produce(failed bool) *Message {
	w.t.Helper()
	s, g := w.s0, w.f.def.Group()
	rs := s.rounds[s.head]
	if rs == nil {
		w.t.Fatalf("server 0 has no round %d in flight (phase %d, rounds %d)", s.head, s.phase, len(s.rounds))
	}
	var cleartext []byte
	var included []int
	for _, c := range w.clients {
		if c.expelled || len(c.inflight) == 0 || c.inflight[0].r != rs.r {
			continue
		}
		vec := c.inflight[0].vec
		if cleartext == nil {
			cleartext = make([]byte, len(vec))
		}
		if len(vec) != len(cleartext) {
			w.t.Fatalf("round %d: client %d composed %d bytes, others %d", rs.r, c.idx, len(vec), len(cleartext))
		}
		crypto.XORBytes(cleartext, vec)
		included = append(included, c.idx)
	}
	if len(included) == 0 {
		w.t.Fatalf("round %d: no client submitted", rs.r)
	}
	slices.Sort(included)
	rs.included, rs.directSets = included, make([][]int, len(w.f.def.Servers))
	rs.directSets[s.idx] = included
	rs.failed = failed
	kps := make([]*crypto.KeyPair, len(w.f.def.Servers))
	for i, srv := range w.f.def.Servers {
		kps[i] = w.f.kpByID[srv.ID]
	}
	if failed {
		rs.certDigest = cleartextSignedBytes(s.grpID, rs.r, len(included), nil, nil)
		for i, kp := range kps {
			sig, err := kp.Sign("dissent/cleartext", rs.certDigest, nil)
			if err != nil {
				w.t.Fatal(err)
			}
			rs.certs[i] = crypto.EncodeSignature(g, sig)
		}
	} else {
		rs.cleartext = cleartext
		shares := make([][]byte, len(kps))
		for i, kp := range kps {
			var err error
			if shares[i], err = beacon.MakeShare(kp, rs.r, s.beaconChain.Head(), nil); err != nil {
				w.t.Fatal(err)
			}
		}
		rs.beaconEntry = beacon.NewEntry(rs.r, s.beaconChain.Head(), shares)
		rs.certDigest = cleartextSignedBytes(s.grpID, rs.r, len(included), cleartext, rs.beaconEntry.Value[:])
		ks, nonces := make([]*big.Int, len(kps)), make([]crypto.Element, len(kps))
		for i := range kps {
			ks[i], _ = g.RandomScalar(nil)
			nonces[i] = g.BaseMult(ks[i])
		}
		rs.certChal = s.cert.Challenge("dissent/cleartext", nonces, rs.certDigest)
		for i, kp := range kps {
			rs.certs[i] = crypto.EncodeScalar(g, s.cert.Respond(i, kp.Private, ks[i], rs.certChal))
		}
	}
	rs.phase = rpCertify
	out, err := s.maybeOutput(w.now, rs)
	if err != nil {
		w.t.Fatalf("round %d: maybeOutput: %v", rs.r, err)
	}
	var output *Message
	for _, env := range out.Send {
		if env.Msg.Type == MsgOutput {
			output = env.Msg
		}
	}
	if output == nil {
		w.t.Fatalf("round %d: server 0 broadcast no output", rs.r)
	}
	w.route(s.ID(), out, nil)
	return output
}

// replicas lists every replica under test with its role.
func (w *lockstepWorld) replicas() (names []string, nodes []*node, servers int) {
	add := func(name string, n *node) { names, nodes = append(names, name), append(nodes, n) }
	add("server 0 (produced)", &w.s0.node)
	add("server 1 (adopted)", &w.s1.node)
	for i, fk := range w.forks {
		add(fmt.Sprintf("server 1 restored at step %d", i), &fk.node)
	}
	servers = len(nodes)
	for _, c := range w.clients {
		add(fmt.Sprintf("client %d (followed)", c.idx), &c.node)
	}
	for i, tw := range w.twins {
		add(fmt.Sprintf("client 0 re-synced at twin %d", i), &tw.node)
	}
	return names, nodes, servers
}

// assertLockstep compares every replica with server 0. The drain point
// is recorded by role — a server when its pipeline empties (at depth 1,
// every round), a client when the roster update or blame verdict reaches
// it — so it is compared within a role, and across roles by what it
// determines: how deep the next round's delta queue ramps.
func (w *lockstepWorld) assertLockstep(step string) {
	w.t.Helper()
	names, nodes, servers := w.replicas()
	ramp := func(st replicaState) uint64 { return min(uint64(w.depth-1), st.head-st.drain) }
	want := stateOf(nodes[0])
	for i, n := range nodes {
		got := stateOf(n)
		peer := want // same role: the drain point itself must agree
		if i >= servers {
			peer = stateOf(nodes[servers])
		}
		if w.depth > 1 && got.drain != peer.drain || ramp(got) != ramp(want) {
			w.t.Fatalf("%s: %s drain %d (head %d), its role's %d, server 0's %d (head %d)",
				step, names[i], got.drain, got.head, peer.drain, want.drain, want.head)
		}
		got.drain = want.drain
		if got != want {
			w.t.Fatalf("%s: %s left lockstep:\n got  %+v\n want %+v", step, names[i], got, want)
		}
	}
}

// queuedRows reads the delta-queue length out of a schedule's state.
func queuedRows(state []byte) uint32 {
	slots := binary.BigEndian.Uint32(state[8:])
	return binary.BigEndian.Uint32(state[12+12*slots:])
}

// fork restores a new server 1 from server 1's store as it stands, and
// re-syncs a new client 0 from server 0's snapshot.
func (w *lockstepWorld) fork(step string) (queued uint32) {
	w.t.Helper()
	bs := beacon.NewMemStore()
	for _, e := range w.s1.beaconChain.RangeFrom(0, 1<<20) {
		if err := bs.Append(e); err != nil {
			w.t.Fatal(err)
		}
	}
	o := w.opts()
	o.StateStore, o.BeaconStore = w.s1store.clone(), bs
	fk, err := NewServer(w.f.def, w.f.kpByID[w.s1.ID()], w.f.msgKPByIdx[w.s1.idx], o)
	if err != nil {
		w.t.Fatal(err)
	}
	if _, ok, err := fk.RestoreFromStore(w.now); err != nil || !ok {
		w.t.Fatalf("%s: restore: ok=%v err=%v", step, ok, err)
	}
	w.forks = append(w.forks, fk)

	if u := w.s0.lastRosterUpdate; u != nil {
		c0 := w.clients[0]
		tw, err := NewClient(w.f.def, w.f.kpByID[c0.ID()], w.opts())
		if err != nil {
			w.t.Fatal(err)
		}
		if _, err := tw.InstallSchedule(w.now, len(w.f.clients), 0, w.pseu0); err != nil {
			w.t.Fatal(err)
		}
		m, err := w.s0.sign(MsgSnapshot, w.s0.head, w.s0.buildSnapshot(u).Encode())
		if err != nil {
			w.t.Fatal(err)
		}
		out, err := tw.Handle(w.now, m)
		if err != nil || len(out.Events) == 0 || out.Events[0].Kind != EventReplicaResynced {
			w.t.Fatalf("%s: re-sync: %+v, %v", step, out, err)
		}
		w.twins = append(w.twins, tw)
	}
	_, _, state := w.s1.snapshot()
	return queuedRows(state)
}

// TestReplicaLockstep drives one table of transitions — certified and
// failed rounds, epoch rotations, roster growth and removal, a shuffle
// request, the drains and ramps around them — through the three ways a
// replica takes a certified output: the server that produced it
// (maybeOutput), a server that adopts it (onPeerOutput) and the clients
// that follow it (onOutput). After every step all replicas agree on
// schedule digest, schedule round, beacon head, head and drain ramp; and
// a replica restored from that step's snapshot — a server from its store,
// a client from a snapshot sync — agrees too and stays in lockstep for
// the rest of the table, delta queue in mid-pipeline included.
func TestReplicaLockstep(t *testing.T) {
	for depth := 1; depth <= 3; depth++ {
		t.Run(fmt.Sprintf("depth-%d", depth), func(t *testing.T) {
			w := &lockstepWorld{t: t, depth: depth, now: time.Unix(1000, 0),
				s1store: make(mapStore), engines: make(map[group.NodeID]Engine), events: make(map[EventKind]int)}
			w.f = newFixture(t, 2, 3, fixtureOpts{
				mutatePolicy: func(p *group.Policy) {
					p.BeaconEpochRounds = 5
					p.OpenAdmission = true
				},
				mutateOpts: func(o *Options) { o.PipelineDepth = depth },
				serverOpts: func(idx int, o *Options) {
					if idx == 1 {
						o.StateStore = w.s1store
					}
				},
			})
			w.s0, w.s1, w.clients = w.f.servers[0], w.f.servers[1], slices.Clone(w.f.clients)
			pseus := make([]*crypto.KeyPair, len(w.clients))
			slotKeys := make([]crypto.Element, len(w.clients))
			for i := range pseus {
				pseus[i], _ = crypto.GenerateKeyPair(crypto.P256(), nil)
				slotKeys[i] = pseus[i].Public
			}
			w.pseu0 = pseus[0]
			for _, s := range w.f.servers {
				w.engines[s.ID()] = s
				out, err := s.InstallSchedule(w.now, slotKeys)
				w.route(s.ID(), out, err)
			}
			for i, c := range w.clients {
				w.engines[c.ID()] = c
				out, err := c.InstallSchedule(w.now, len(w.clients), i, pseus[i])
				w.route(c.ID(), out, err)
			}
			w.assertLockstep("bootstrap")

			maxQueued, dueForks := uint32(0), 0
			for i, step := range lockstepScript {
				name := fmt.Sprintf("step %d (%s)", i, step.name)
				for ci, n := range step.send {
					if n > 0 {
						w.clients[ci].Send(bytes.Repeat([]byte{byte('a' + ci)}, n))
					}
				}
				if step.joiner > 0 {
					if w.joiner == nil || !w.joiner.Ready() {
						t.Fatalf("%s: the joiner was never admitted", name)
					}
					w.joiner.Send(bytes.Repeat([]byte{'j'}, step.joiner))
				}
				if c0 := w.clients[0]; step.arm {
					c0.witness = &witnessInfo{round: c0.head}
				}
				if step.join {
					kp, _ := crypto.GenerateKeyPair(crypto.P256(), nil)
					var err error
					if w.joiner, err = NewJoinerClient(w.f.def, kp, "", w.opts()); err != nil {
						t.Fatal(err)
					}
					w.engines[w.joiner.ID()] = w.joiner
					out, err := w.joiner.Start(w.now)
					w.route(w.joiner.ID(), out, err)
				}
				if step.expel {
					if err := w.s0.Expel(w.clients[2].ID()); err != nil {
						t.Fatal(err)
					}
				}

				w.tick()
				output := w.produce(step.fail)
				out, err := w.s1.Handle(w.now, output)
				w.route(w.s1.ID(), out, err)
				w.feedForks(output)
				for w.s0.phase == phaseBlame || w.s1.phase == phaseBlame {
					w.tick()
				}
				w.assertLockstep(name)
				// Client 0's witness keeps requesting shuffles once armed —
				// nobody carries its accusation here — so past a pipelined
				// drain the restore happens with a shuffle due but not open.
				if w.s1.blameDue {
					dueForks++
				}
				maxQueued = max(maxQueued, w.fork(name))
				w.assertLockstep(name + ", restored")
			}

			for kind, want := range map[EventKind]int{
				EventRoundFailed: 2, EventEpochRotated: 4, EventBlameStarted: 2,
				EventMemberJoined: 1, EventMemberExpelled: 1, EventRosterChanged: 4,
			} {
				if w.events[kind] < want {
					t.Errorf("the table produced %d %s events, want at least %d", w.events[kind], kind, want)
				}
			}
			// Every round decoded at the layout it was composed at: no
			// client saw its slot come out other than it sent it.
			if n := w.events[EventDisruptionDetected]; n != 0 {
				t.Errorf("the table produced %d disruption events, want none", n)
			}
			if want := uint32(depth - 1); maxQueued != want {
				t.Errorf("deepest delta queue restored from: %d rows, want %d", maxQueued, want)
			}
			if len(w.forks) != len(lockstepScript) {
				t.Errorf("restored %d forks, want one per step (%d)", len(w.forks), len(lockstepScript))
			}
			if depth > 1 && dueForks == 0 {
				t.Errorf("no fork was restored with an accusation shuffle due")
			}
		})
	}
}
