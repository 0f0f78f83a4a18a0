package dissent_test

// SDK integration tests: complete groups running to certified DC-net
// rounds through the public API alone — every member a session on a
// Host of its own, over the in-process SimNet and over real loopback
// TCP — plus the beacon session-binding verifier path and lifecycle
// semantics.

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

// placement puts one member (its role and key index i) on a Host of
// its own: it returns that Host's options and the member's session
// options.
type placement func(role dissent.Role, i int) ([]dissent.HostOption, []dissent.Option)

// onSimNet places every member on one shared SimNet.
func onSimNet(net *dissent.SimNet, opts ...dissent.Option) placement {
	return func(dissent.Role, int) ([]dissent.HostOption, []dissent.Option) {
		return []dissent.HostOption{dissent.WithHostSimNet(net)}, opts
	}
}

// onTCP places every member on a loopback listener of its own, wired
// through one roster. The roster is returned so a test can re-point an
// entry before the group starts (the mesh reads it at send time).
func onTCP(t *testing.T, grp *dissent.Group, sKeys, cKeys []dissent.Keys, opts ...dissent.Option) (placement, dissent.Roster) {
	t.Helper()
	// One batch, so no two members are handed the same port.
	ports := reservePorts(t, len(sKeys)+len(cKeys))
	sAddrs, cAddrs := ports[:len(sKeys)], ports[len(sKeys):]
	roster := dissent.Roster{}
	for i, k := range sKeys {
		roster[memberID(grp, k)] = sAddrs[i]
	}
	for i, k := range cKeys {
		roster[memberID(grp, k)] = cAddrs[i]
	}
	opts = append(opts, dissent.WithRoster(roster))
	return func(role dissent.Role, i int) ([]dissent.HostOption, []dissent.Option) {
		addrs := sAddrs
		if role == dissent.RoleClient {
			addrs = cAddrs
		}
		return []dissent.HostOption{dissent.WithHostListenAddr(addrs[i])}, opts
	}, roster
}

// newHost builds a Host or fails the test.
func newHost(t *testing.T, opts ...dissent.HostOption) *dissent.Host {
	t.Helper()
	h, err := dissent.NewHost(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// sdkGroup is a running group, every member the one session of its own
// Host.
type sdkGroup struct {
	servers []*dissent.Session
	clients []*dissent.Session
	hosts   []*dissent.Host
}

func (g *sdkGroup) all() []*dissent.Session {
	return append(append([]*dissent.Session(nil), g.servers...), g.clients...)
}

// stop closes every member's Host and checks each session shut down.
func (g *sdkGroup) stop(t *testing.T) {
	t.Helper()
	for _, h := range g.hosts {
		if err := h.Close(); err != nil {
			t.Errorf("Host.Close returned %v", err)
		}
	}
	for _, s := range g.all() {
		select {
		case <-s.Done():
		case <-time.After(20 * time.Second):
			t.Fatal("session did not shut down after its Host closed")
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

// startGroup opens every member, each on a Host of its own placed by
// place.
func startGroup(t *testing.T, grp *dissent.Group, sKeys, cKeys []dissent.Keys, place placement) *sdkGroup {
	t.Helper()
	g := &sdkGroup{}
	open := func(role dissent.Role, i int, k dissent.Keys) *dissent.Session {
		hostOpts, opts := place(role, i)
		h := newHost(t, hostOpts...)
		g.hosts = append(g.hosts, h)
		s, err := h.OpenSession(grp, k, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for i, k := range sKeys {
		g.servers = append(g.servers, open(dissent.RoleServer, i, k))
	}
	for i, k := range cKeys {
		g.clients = append(g.clients, open(dissent.RoleClient, i, k))
	}
	return g
}

// driveGroupToCertifiedRound is the acceptance scenario: a 3-server,
// 8-client group reaches a certified round and delivers an anonymous
// message end to end, through the public API alone.
func driveGroupToCertifiedRound(t *testing.T, grp *dissent.Group, sKeys, cKeys []dissent.Keys, place placement) {
	t.Helper()
	g := startGroup(t, grp, sKeys, cKeys, place)
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
	for _, node := range []*dissent.Session{g.servers[1], g.clients[5]} {
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
		t.Error("Send on a server session succeeded")
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
	driveGroupToCertifiedRound(t, grp, sKeys, cKeys, onSimNet(net))
}

// TestSDKGroupOverTCP runs the same acceptance group over real
// loopback TCP: one Host per member on its own listener, one roster.
func TestSDKGroupOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time TCP test")
	}
	policy := testPolicy(func(p *dissent.Policy) { p.WindowMin = 20 * time.Millisecond })
	sKeys, cKeys, grp := buildGroup(t, 3, 8, policy)

	place, _ := onTCP(t, grp, sKeys, cKeys)
	driveGroupToCertifiedRound(t, grp, sKeys, cKeys, place)
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
// open (and fire their pseudonym submissions) well before any server
// attaches. Early messages must buffer — at the transport for unborn
// peers and at the Session until engine.Start runs — rather than
// racing the engine into a clobbered state.
func TestSDKClientsStartFirst(t *testing.T) {
	policy := testPolicy(nil)
	sKeys, cKeys, grp := buildGroup(t, 2, 3, policy)
	net := dissent.NewSimNet()
	defer net.Close()

	clients := startGroup(t, grp, nil, cKeys, onSimNet(net))
	defer clients.stop(t)
	time.Sleep(200 * time.Millisecond) // client submissions are in flight
	servers := startGroup(t, grp, sKeys, nil, onSimNet(net))
	defer servers.stop(t)
	rounds := servers.servers[0].Subscribe(dissent.EventRoundComplete)
	select {
	case _, ok := <-rounds:
		if !ok {
			t.Fatal("subscription closed early")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("no certified round: early client messages were lost or clobbered Start")
	}
}

// TestSDKBeaconSessionBinding runs a beacon-enabled group, serves the
// chain over the session's beacon HTTP endpoint, and checks the external
// verifier path: SyncBeacon authenticates the schedule certificate,
// anchors at the session genesis, and a pre-session-anchored replica
// rejects the live chain.
func TestSDKBeaconSessionBinding(t *testing.T) {
	policy := testPolicy(func(p *dissent.Policy) { p.BeaconEpochRounds = 2 })
	sKeys, cKeys, grp := buildGroup(t, 2, 3, policy)
	net := dissent.NewSimNet()
	defer net.Close()
	beaconAddr := reservePort(t)
	sim := onSimNet(net)
	g := startGroup(t, grp, sKeys, cKeys, func(role dissent.Role, i int) ([]dissent.HostOption, []dissent.Option) {
		hostOpts, opts := sim(role, i)
		if role == dissent.RoleServer && i == 0 {
			opts = append(opts, dissent.WithBeaconHTTP(beaconAddr))
		}
		return hostOpts, opts
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

// TestSDKShutdownClosesChannels checks the Host lifecycle: Close
// returns nil and closes the session's Messages and subscription
// channels.
func TestSDKShutdownClosesChannels(t *testing.T) {
	policy := testPolicy(nil)
	sKeys, cKeys, grp := buildGroup(t, 2, 2, policy)
	net := dissent.NewSimNet()
	defer net.Close()
	g := startGroup(t, grp, sKeys, cKeys, onSimNet(net))
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
