package dissent_test

// SDK integration tests: complete groups running to certified DC-net
// rounds through the public dissent.Node API alone — over the
// in-process SimNet transport and over real loopback TCP — plus the
// beacon session-binding verifier path and lifecycle semantics.

import (
	"context"
	"net"
	"testing"
	"time"

	"dissent"
)

// testPolicy returns a policy sized for fast real-time test runs.
func testPolicy(mutate func(*dissent.Policy)) dissent.Policy {
	p := dissent.DefaultPolicy()
	p.MessageGroup = "modp-512-test"
	p.WindowMin = 10 * time.Millisecond
	p.HardTimeout = 30 * time.Second
	p.DefaultOpenLen = 64
	p.BeaconEpochRounds = 0
	if mutate != nil {
		mutate(&p)
	}
	return p
}

// buildGroup generates keys and a definition.
func buildGroup(t *testing.T, servers, clients int, policy dissent.Policy) ([]dissent.Keys, []dissent.Keys, *dissent.Group) {
	t.Helper()
	sKeys := make([]dissent.Keys, servers)
	cKeys := make([]dissent.Keys, clients)
	var err error
	for i := range sKeys {
		if sKeys[i], err = dissent.GenerateServerKeys(policy); err != nil {
			t.Fatal(err)
		}
	}
	for i := range cKeys {
		if cKeys[i], err = dissent.GenerateClientKeys(); err != nil {
			t.Fatal(err)
		}
	}
	grp, err := dissent.NewGroup("sdk-test", sKeys, cKeys, policy)
	if err != nil {
		t.Fatal(err)
	}
	return sKeys, cKeys, grp
}

// sdkGroup is a running set of Nodes plus lifecycle bookkeeping.
type sdkGroup struct {
	servers []*dissent.Node
	clients []*dissent.Node
	cancel  context.CancelFunc
	runErr  chan error
	n       int
}

func (g *sdkGroup) all() []*dissent.Node {
	return append(append([]*dissent.Node(nil), g.servers...), g.clients...)
}

// stop cancels the group and waits for every Run to return.
func (g *sdkGroup) stop(t *testing.T) {
	t.Helper()
	g.cancel()
	for i := 0; i < g.n; i++ {
		select {
		case err := <-g.runErr:
			if err != nil {
				t.Errorf("Run returned %v", err)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("Run did not return after cancel")
		}
	}
}

// reservePort grabs a free loopback port.
func reservePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startGroup constructs and runs every node. extraOpts returns
// per-node options: the transport wiring for this run, plus anything
// the test adds for specific nodes.
func startGroup(t *testing.T, grp *dissent.Group, sKeys, cKeys []dissent.Keys,
	extraOpts func(role dissent.Role, i int) []dissent.Option) *sdkGroup {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	g := &sdkGroup{cancel: cancel, n: len(sKeys) + len(cKeys)}
	g.runErr = make(chan error, g.n)
	for i, k := range sKeys {
		node, err := dissent.NewServer(grp, k, extraOpts(dissent.RoleServer, i)...)
		if err != nil {
			t.Fatal(err)
		}
		g.servers = append(g.servers, node)
	}
	for i, k := range cKeys {
		node, err := dissent.NewClient(grp, k, extraOpts(dissent.RoleClient, i)...)
		if err != nil {
			t.Fatal(err)
		}
		g.clients = append(g.clients, node)
	}
	for _, node := range g.all() {
		node := node
		go func() { g.runErr <- node.Run(ctx) }()
	}
	return g
}

// driveGroupToCertifiedRound is the acceptance scenario: a 3-server,
// 8-client group reaches a certified round and delivers an anonymous
// message end to end, through the public API alone.
func driveGroupToCertifiedRound(t *testing.T, grp *dissent.Group, sKeys, cKeys []dissent.Keys,
	extraOpts func(role dissent.Role, i int) []dissent.Option) {
	t.Helper()
	g := startGroup(t, grp, sKeys, cKeys, extraOpts)
	defer g.stop(t)

	rounds := g.servers[0].Subscribe(dissent.EventRoundComplete)
	ready := g.clients[2].Subscribe(dissent.EventScheduleReady)

	const payload = "certified anonymous payload"
	if err := g.clients[2].Send(context.Background(), []byte(payload)); err != nil {
		t.Fatal(err)
	}

	deadline := time.After(60 * time.Second)
	select {
	case _, ok := <-ready:
		if !ok {
			t.Fatal("schedule subscription closed early")
		}
	case <-deadline:
		t.Fatal("schedule not established after 60s")
	}
	select {
	case e, ok := <-rounds:
		if !ok {
			t.Fatal("round subscription closed early")
		}
		if e.Kind != dissent.EventRoundComplete {
			t.Fatalf("subscription filter leaked a %v event", e.Kind)
		}
	case <-deadline:
		t.Fatal("no certified round after 60s")
	}

	// The anonymous payload surfaces at a server and at a client that
	// did not send it — everyone observes the channel's cleartext.
	for _, node := range []*dissent.Node{g.servers[1], g.clients[5]} {
		found := false
		for !found {
			select {
			case m, ok := <-node.Messages():
				if !ok {
					t.Fatal("message channel closed early")
				}
				if string(m.Data) == payload {
					found = true
				}
			case <-deadline:
				t.Fatalf("payload did not reach %v %d", node.Role(), node.Index())
			}
		}
	}

	if err := g.servers[0].Send(context.Background(), []byte("x")); err == nil {
		t.Error("Send on a server node succeeded")
	}
}

// TestSDKGroupOverSimNet runs the acceptance group over the in-process
// transport.
func TestSDKGroupOverSimNet(t *testing.T) {
	policy := testPolicy(nil)
	sKeys, cKeys, grp := buildGroup(t, 3, 8, policy)
	net := dissent.NewSimNet()
	defer net.Close()
	net.SetLatency(func(from, to dissent.NodeID) time.Duration { return time.Millisecond })
	driveGroupToCertifiedRound(t, grp, sKeys, cKeys, func(dissent.Role, int) []dissent.Option {
		return []dissent.Option{dissent.WithTransport(net)}
	})
}

// TestSDKGroupOverTCP runs the same acceptance group over real
// loopback TCP via the default transport (listen addr + roster).
func TestSDKGroupOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time TCP test")
	}
	policy := testPolicy(func(p *dissent.Policy) { p.WindowMin = 20 * time.Millisecond })
	sKeys, cKeys, grp := buildGroup(t, 3, 8, policy)

	// Reserve an address per member (in one batch, so no duplicates);
	// the shared roster is completed before any node runs (nodes dial
	// lazily at first send).
	roster := dissent.Roster{}
	ports := reservePorts(t, len(sKeys)+len(cKeys))
	sAddrs := ports[:len(sKeys)]
	cAddrs := ports[len(sKeys):]
	opts := func(role dissent.Role, i int) []dissent.Option {
		addr := sAddrs
		if role == dissent.RoleClient {
			addr = cAddrs
		}
		return []dissent.Option{dissent.WithListenAddr(addr[i]), dissent.WithRoster(roster)}
	}
	for i, k := range sKeys {
		id := memberID(grp, k)
		roster[id] = sAddrs[i]
	}
	for i, k := range cKeys {
		id := memberID(grp, k)
		roster[id] = cAddrs[i]
	}
	driveGroupToCertifiedRound(t, grp, sKeys, cKeys, opts)
}

// memberID finds the definition ID for a keyset by public key.
func memberID(grp *dissent.Group, k dissent.Keys) dissent.NodeID {
	g := grp.Group()
	want := string(g.Encode(k.Identity.Public))
	for _, m := range grp.Servers {
		if string(g.Encode(m.PubKey)) == want {
			return m.ID
		}
	}
	for _, m := range grp.Clients {
		if string(g.Encode(m.PubKey)) == want {
			return m.ID
		}
	}
	panic("key not in group")
}

// TestSDKClientsStartFirst pins the startup-order regression: clients
// run (and fire their pseudonym submissions) well before any server
// attaches. Early messages must buffer — at the transport for unborn
// peers and at the Node until engine.Start runs — rather than racing
// the engine into a clobbered state.
func TestSDKClientsStartFirst(t *testing.T) {
	policy := testPolicy(nil)
	sKeys, cKeys, grp := buildGroup(t, 2, 3, policy)
	net := dissent.NewSimNet()
	defer net.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, len(sKeys)+len(cKeys))
	var clients []*dissent.Node
	for _, k := range cKeys {
		n, err := dissent.NewClient(grp, k, dissent.WithTransport(net))
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, n)
		go func() { runErr <- n.Run(ctx) }()
	}
	time.Sleep(200 * time.Millisecond) // client submissions are in flight
	var server0 *dissent.Node
	for _, k := range sKeys {
		n, err := dissent.NewServer(grp, k, dissent.WithTransport(net))
		if err != nil {
			t.Fatal(err)
		}
		if server0 == nil {
			server0 = n
		}
		go func() { runErr <- n.Run(ctx) }()
	}
	rounds := server0.Subscribe(dissent.EventRoundComplete)
	select {
	case _, ok := <-rounds:
		if !ok {
			t.Fatal("subscription closed early")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("no certified round: early client messages were lost or clobbered Start")
	}
	cancel()
	for i := 0; i < len(sKeys)+len(cKeys); i++ {
		if err := <-runErr; err != nil {
			t.Errorf("Run returned %v", err)
		}
	}
}

// TestSDKBeaconSessionBinding runs a beacon-enabled group, serves the
// chain over the node's beacon HTTP endpoint, and checks the external
// verifier path: SyncBeacon authenticates the schedule certificate,
// anchors at the session genesis, and a pre-session-anchored replica
// rejects the live chain.
func TestSDKBeaconSessionBinding(t *testing.T) {
	policy := testPolicy(func(p *dissent.Policy) { p.BeaconEpochRounds = 2 })
	sKeys, cKeys, grp := buildGroup(t, 2, 3, policy)
	net := dissent.NewSimNet()
	defer net.Close()
	beaconAddr := reservePort(t)
	g := startGroup(t, grp, sKeys, cKeys, func(role dissent.Role, i int) []dissent.Option {
		opts := []dissent.Option{dissent.WithTransport(net)}
		if role == dissent.RoleServer && i == 0 {
			opts = append(opts, dissent.WithBeaconHTTP(beaconAddr))
		}
		return opts
	})
	defer g.stop(t)

	chain := g.servers[0].BeaconChain()
	if chain == nil {
		t.Fatal("beacon disabled despite policy")
	}
	deadline := time.After(60 * time.Second)
	for chain.Len() < 3 {
		select {
		case <-deadline:
			t.Fatalf("beacon chain reached only %d entries", chain.Len())
		case <-time.After(20 * time.Millisecond):
		}
	}

	res, err := dissent.SyncBeacon("http://"+beaconAddr, grp)
	if err != nil {
		t.Fatalf("SyncBeacon: %v", err)
	}
	if !res.SessionBound {
		t.Fatal("sync not anchored at the session genesis")
	}
	if res.Added < 3 {
		t.Fatalf("synced only %d entries", res.Added)
	}
	if err := res.Chain.Verify(); err != nil {
		t.Fatalf("synced chain failed verification: %v", err)
	}
	if res.Chain.Genesis() == chain.Genesis() {
		// Same genesis is expected — they describe the same session.
	} else {
		t.Fatal("verifier genesis differs from the live chain's")
	}

	// Clients converged on the same session-bound chain.
	cl := g.clients[0].BeaconChain()
	if cl.Genesis() != chain.Genesis() {
		t.Fatal("client chain genesis diverged")
	}
}

// TestSDKShutdownClosesChannels checks the Run(ctx) lifecycle: cancel
// closes Messages and subscription channels and Run returns nil.
func TestSDKShutdownClosesChannels(t *testing.T) {
	policy := testPolicy(nil)
	sKeys, cKeys, grp := buildGroup(t, 2, 2, policy)
	net := dissent.NewSimNet()
	defer net.Close()
	g := startGroup(t, grp, sKeys, cKeys, func(dissent.Role, int) []dissent.Option {
		return []dissent.Option{dissent.WithTransport(net)}
	})
	node := g.clients[0]
	events := node.Subscribe()
	g.stop(t)

	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-events:
			if !ok {
				goto eventsClosed
			}
		case <-deadline:
			t.Fatal("event channel not closed after shutdown")
		}
	}
eventsClosed:
	for {
		select {
		case _, ok := <-node.Messages():
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("message channel not closed after shutdown")
		}
	}
}
