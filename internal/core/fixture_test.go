package core

import (
	"testing"
	"time"

	"dissent/internal/crypto"
	"dissent/internal/dcnet"
	"dissent/internal/group"
)

// fixture wires M server and N client engines over a zero-ish-latency
// harness with the small test message group.
type fixture struct {
	t       testing.TB
	def     *group.Definition
	servers []*Server
	clients []*Client
	h       *Harness
	// kpByID/msgKPByIdx retain the identity material so restart tests
	// can rebuild an engine for an existing member.
	kpByID     map[group.NodeID]*crypto.KeyPair
	msgKPByIdx map[int]*crypto.KeyPair
}

// fixtureOpts tunes fixture construction.
type fixtureOpts struct {
	mutatePolicy func(*group.Policy)
	// mutateOpts adjusts the engine options every node is built with
	// (e.g. PipelineDepth, which must match across the group).
	mutateOpts func(*Options)
	// serverOpts adjusts one server's options after mutateOpts (e.g. a
	// per-server StateStore for restart tests). idx is the definition
	// index.
	serverOpts func(idx int, o *Options)
	// clientOpts adjusts one client's options after mutateOpts (e.g. an
	// Interdict for a scripted byzantine client).
	clientOpts func(idx int, o *Options)
	// wrapServer/wrapClient substitute a (possibly malicious) engine
	// for the node at the given definition index.
	wrapServer func(idx int, s *Server) Engine
	wrapClient func(idx int, c *Client) Engine
}

func newFixture(t testing.TB, m, n int, fo fixtureOpts) *fixture {
	t.Helper()
	keyGrp := crypto.P256()
	msgGrp := crypto.ModP512Test()

	serverKPs := make([]*crypto.KeyPair, m)
	serverMsgKPs := make([]*crypto.KeyPair, m)
	serverKeys := make([]crypto.Element, m)
	serverMsgKeys := make([]crypto.Element, m)
	for i := 0; i < m; i++ {
		serverKPs[i], _ = crypto.GenerateKeyPair(keyGrp, nil)
		serverMsgKPs[i], _ = crypto.GenerateKeyPair(msgGrp, nil)
		serverKeys[i] = serverKPs[i].Public
		serverMsgKeys[i] = serverMsgKPs[i].Public
	}
	clientKPs := make([]*crypto.KeyPair, n)
	clientKeys := make([]crypto.Element, n)
	for i := 0; i < n; i++ {
		clientKPs[i], _ = crypto.GenerateKeyPair(keyGrp, nil)
		clientKeys[i] = clientKPs[i].Public
	}

	policy := group.DefaultPolicy()
	policy.MessageGroup = "modp-512-test"
	policy.WindowMin = 10 * time.Millisecond
	policy.HardTimeout = 30 * time.Second
	policy.DefaultOpenLen = 64
	if fo.mutatePolicy != nil {
		fo.mutatePolicy(&policy)
	}

	def, err := group.NewDefinition("core-test", serverKeys, serverMsgKeys, clientKeys, policy)
	if err != nil {
		t.Fatal(err)
	}

	// NewDefinition sorts by ID; re-associate keypairs by member order.
	kpByID := make(map[group.NodeID]*crypto.KeyPair)
	msgKPByKey := make(map[string]*crypto.KeyPair)
	for i := 0; i < m; i++ {
		kpByID[group.IDFromKey(keyGrp, serverKeys[i])] = serverKPs[i]
		msgKPByKey[string(msgGrp.Encode(serverMsgKeys[i]))] = serverMsgKPs[i]
	}
	for i := 0; i < n; i++ {
		kpByID[group.IDFromKey(keyGrp, clientKeys[i])] = clientKPs[i]
	}

	f := &fixture{t: t, def: def, h: NewHarness(),
		kpByID: kpByID, msgKPByIdx: make(map[int]*crypto.KeyPair)}
	f.h.Latency = func(from, to group.NodeID) time.Duration { return time.Millisecond }
	opts := Options{MessageGroup: msgGrp}
	if fo.mutateOpts != nil {
		fo.mutateOpts(&opts)
	}

	for i, mem := range def.Servers {
		srvOpts := opts
		if fo.serverOpts != nil {
			fo.serverOpts(i, &srvOpts)
		}
		msgKP := msgKPByKey[string(msgGrp.Encode(mem.MsgPubKey))]
		f.msgKPByIdx[i] = msgKP
		srv, err := NewServer(def, kpByID[mem.ID], msgKP, srvOpts)
		if err != nil {
			t.Fatal(err)
		}
		f.servers = append(f.servers, srv)
		var eng Engine = srv
		if fo.wrapServer != nil {
			if w := fo.wrapServer(i, srv); w != nil {
				eng = w
			}
		}
		f.h.AddNode(mem.ID, eng, 0)
	}
	for i, mem := range def.Clients {
		cliOpts := opts
		if fo.clientOpts != nil {
			fo.clientOpts(i, &cliOpts)
		}
		cl, err := NewClient(def, kpByID[mem.ID], cliOpts)
		if err != nil {
			t.Fatal(err)
		}
		f.clients = append(f.clients, cl)
		var eng Engine = cl
		if fo.wrapClient != nil {
			if w := fo.wrapClient(i, cl); w != nil {
				eng = w
			}
		}
		f.h.AddNode(mem.ID, eng, 0)
	}
	return f
}

// run starts everything and drives the network for a bounded number of
// events, failing the test on any engine error.
func (f *fixture) run(maxEvents int64) {
	f.t.Helper()
	f.h.StartAll()
	f.h.Run(maxEvents)
	for _, err := range f.h.Errors {
		f.t.Errorf("harness error: %v", err)
	}
}

// runUntilRound drives until every server reports at least the given
// round number complete (or the event budget runs out).
func (f *fixture) runUntilRound(round uint64, maxEvents int64) {
	f.t.Helper()
	f.h.StartAll()
	var steps int64
	for steps < maxEvents {
		done := true
		for _, s := range f.servers {
			if s.Round() <= round {
				done = false
				break
			}
		}
		if done {
			break
		}
		if !f.h.Net.Step() {
			break
		}
		steps++
	}
	for _, err := range f.h.Errors {
		f.t.Errorf("harness error: %v", err)
	}
}

// violations returns all protocol-violation events for debugging.
func (f *fixture) violations() []TimedEvent {
	return f.h.EventsOf(EventProtocolViolation)
}

// headLayout is the layout n's head round decodes at.
func headLayout(n *node) dcnet.Layout { return n.sched.Layout(n.head()) }
