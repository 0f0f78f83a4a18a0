package dissent_test

// Multi-session hosting tests: one Host serving several independent
// groups over one shared fabric — an in-process SimNet hub and a
// single TCP listener — with per-session isolation, independent
// teardown, and metrics.

import (
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"dissent"
)

// reservePorts grabs n distinct free loopback ports, holding every
// listener open until all are allocated so the batch cannot hand out
// duplicates (reserve-then-close one at a time can).
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	lns := make([]interface{ Close() error }, 0, n)
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// hostGroup is one group's worth of members: the shared host runs
// server 0, every other member runs on a Host of its own.
type hostGroup struct {
	sKeys, cKeys []dissent.Keys
	grp          *dissent.Group
	sess         *dissent.Session // host-side membership (server 0)
	peers        *sdkGroup        // every other member
	payload      string
}

// startHostGroup opens the group's server-0 membership on the shared
// host and every other member on a Host of its own.
func startHostGroup(t *testing.T, host *dissent.Host, g *hostGroup, sessOpts []dissent.Option, place placement) {
	t.Helper()
	sess, err := host.OpenSession(g.grp, g.sKeys[0], sessOpts...)
	if err != nil {
		t.Fatal(err)
	}
	g.sess = sess
	if sess.Role() != dissent.RoleServer {
		t.Fatalf("host session role = %v, want server", sess.Role())
	}
	if sess.SessionID() != dissent.GroupSessionID(g.grp) {
		t.Fatal("session ID does not match the group ID")
	}
	g.peers = startGroup(t, g.grp, g.sKeys[1:], g.cKeys, func(role dissent.Role, i int) ([]dissent.HostOption, []dissent.Option) {
		if role == dissent.RoleServer {
			i++ // server 0 lives on the shared host
		}
		return place(role, i)
	})
}

// driveConcurrently sends each group's payload and waits until every
// host session has delivered its own group's payload and certified a
// round. It returns everything each session delivered, for
// cross-session assertions.
func driveConcurrently(t *testing.T, groups []*hostGroup) map[int][]string {
	t.Helper()
	deadline := time.After(90 * time.Second)
	rounds := make([]<-chan dissent.Event, len(groups))
	for i, g := range groups {
		rounds[i] = g.sess.Subscribe(dissent.EventRoundComplete)
		if err := g.peers.clients[0].Send(context.Background(), []byte(g.payload)); err != nil {
			t.Fatal(err)
		}
	}
	delivered := make(map[int][]string)
	for i, g := range groups {
		found := false
		for !found {
			select {
			case m, ok := <-g.sess.Messages():
				if !ok {
					t.Fatalf("group %d: session message channel closed early", i)
				}
				if len(m.Data) > 0 {
					delivered[i] = append(delivered[i], string(m.Data))
				}
				if string(m.Data) == g.payload {
					found = true
				}
			case <-deadline:
				t.Fatalf("group %d: payload not delivered", i)
			}
		}
		select {
		case _, ok := <-rounds[i]:
			if !ok {
				t.Fatalf("group %d: round subscription closed early", i)
			}
		case <-deadline:
			t.Fatalf("group %d: no certified round", i)
		}
	}
	return delivered
}

// assertIsolated fails if any session delivered another group's
// payload.
func assertIsolated(t *testing.T, groups []*hostGroup, delivered map[int][]string) {
	t.Helper()
	for i := range groups {
		for j, g := range groups {
			if i == j {
				continue
			}
			for _, d := range delivered[i] {
				if d == g.payload {
					t.Errorf("group %d's session delivered group %d's payload %q: sessions crossed", i, j, d)
				}
			}
		}
	}
}

// TestHostTwoSessionsSimNet is the acceptance scenario over the
// in-process hub: one Host, two independent groups, one SimNet, both
// driven to certified rounds concurrently, then torn down
// independently.
func TestHostTwoSessionsSimNet(t *testing.T) {
	policy := testPolicy(nil)
	net := dissent.NewSimNet()
	defer net.Close()
	host, err := dissent.NewHost(dissent.WithHostSimNet(net))
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	if host.Addr() != "sim" {
		t.Fatalf("SimNet host addr = %q", host.Addr())
	}

	groups := make([]*hostGroup, 2)
	for i := range groups {
		g := &hostGroup{payload: fmt.Sprintf("tenant %d secret", i)}
		g.sKeys, g.cKeys, g.grp = buildGroup(t, 2, 3, policy)
		groups[i] = g
		startHostGroup(t, host, g, nil, onSimNet(net))
		defer g.peers.stop(t)
	}
	if got := len(host.Sessions()); got != 2 {
		t.Fatalf("host has %d sessions, want 2", got)
	}

	delivered := driveConcurrently(t, groups)
	assertIsolated(t, groups, delivered)

	// Metrics: both sessions progressed and the host aggregates them.
	hm := host.Metrics()
	if hm.Sessions != 2 || hm.SessionsOpened != 2 {
		t.Errorf("host metrics sessions=%d opened=%d, want 2/2", hm.Sessions, hm.SessionsOpened)
	}
	if hm.RoundsCompleted == 0 || hm.BytesIn == 0 || hm.BytesOut == 0 || hm.MessagesIn == 0 {
		t.Errorf("host metrics did not accumulate traffic: %+v", hm)
	}
	if len(hm.PerSession) != 2 {
		t.Fatalf("per-session metrics count = %d", len(hm.PerSession))
	}
	for _, sm := range hm.PerSession {
		if sm.RoundsCompleted == 0 || sm.RoundsPerSec <= 0 {
			t.Errorf("session %s metrics stalled: %+v", sm.Session, sm)
		}
		if sm.Role != "server" {
			t.Errorf("session %s role = %q", sm.Session, sm.Role)
		}
	}

	// Independent teardown: closing session 0 leaves session 1 running
	// — it keeps certifying rounds.
	moreRounds := groups[1].sess.Subscribe(dissent.EventRoundComplete)
	if err := host.CloseSession(groups[0].sess.SessionID()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-groups[0].sess.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("closed session did not finish shutting down")
	}
	if host.Session(groups[0].sess.SessionID()) != nil {
		t.Fatal("closed session still registered on the host")
	}
	select {
	case _, ok := <-moreRounds:
		if !ok {
			t.Fatal("surviving session's subscription closed")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("surviving session stopped certifying rounds after sibling teardown")
	}
	hm = host.Metrics()
	if hm.Sessions != 1 || hm.SessionsClosed != 1 {
		t.Errorf("after teardown: sessions=%d closed=%d, want 1/1", hm.Sessions, hm.SessionsClosed)
	}
	if err := host.CloseSession(groups[0].sess.SessionID()); err == nil {
		t.Error("closing an already-closed session succeeded")
	}
}

// TestHostTwoSessionsTCP runs two independent groups behind one
// Host with one shared TCP listener: remote members of both groups
// dial the same address, and session-tagged frames route each message
// to the right engine.
func TestHostTwoSessionsTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time TCP test")
	}
	policy := testPolicy(func(p *dissent.Policy) { p.WindowMin = 20 * time.Millisecond })
	host, err := dissent.NewHost(dissent.WithHostListenAddr("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	hostAddr := host.Addr()

	groups := make([]*hostGroup, 2)
	for i := range groups {
		g := &hostGroup{payload: fmt.Sprintf("tcp tenant %d secret", i)}
		g.sKeys, g.cKeys, g.grp = buildGroup(t, 2, 3, policy)
		groups[i] = g

		// One roster per group: server 0 is the shared host's listener,
		// everyone else gets a loopback port of their own.
		place, roster := onTCP(t, g.grp, g.sKeys, g.cKeys)
		roster[memberID(g.grp, g.sKeys[0])] = hostAddr
		startHostGroup(t, host, g, []dissent.Option{dissent.WithRoster(roster)}, place)
		defer g.peers.stop(t)
	}

	delivered := driveConcurrently(t, groups)
	assertIsolated(t, groups, delivered)

	hm := host.Metrics()
	if hm.Addr != hostAddr {
		t.Errorf("host metrics addr = %q, want %q", hm.Addr, hostAddr)
	}
	if hm.Sessions != 2 || hm.RoundsCompleted == 0 {
		t.Errorf("host metrics: %+v", hm)
	}
}

// TestHostOpenSessionErrors pins the host's validation paths: foreign
// keys, duplicate sessions, joiner keys and groups the joiner path
// refuses, missing roster over TCP, and use after Close.
func TestHostOpenSessionErrors(t *testing.T) {
	policy := testPolicy(nil)
	sKeys, cKeys, grp := buildGroup(t, 2, 2, policy)
	net := dissent.NewSimNet()
	defer net.Close()

	// Foreign keys: not a member of the group.
	stranger, err := dissent.GenerateClientKeys()
	if err != nil {
		t.Fatal(err)
	}
	simHost := newHost(t, dissent.WithHostSimNet(net))
	defer simHost.Close()
	if _, err := simHost.OpenSession(grp, stranger); err == nil {
		t.Error("OpenSession accepted keys outside the group")
	}

	// The joiner path passes the engine's refusals through: a key
	// already in the group, and a group without membership churn
	// (BeaconEpochRounds == 0) to join.
	churnSKeys, churnCKeys, churnGrp := buildGroup(t, 2, 2, testPolicy(func(p *dissent.Policy) { p.BeaconEpochRounds = 4 }))
	if _, err := simHost.OpenJoiner(churnGrp, churnCKeys[0]); err == nil || !strings.Contains(err.Error(), "already belongs") {
		t.Errorf("OpenJoiner with a key already in the group: err = %v", err)
	}
	if _, err := simHost.OpenJoiner(grp, stranger); err == nil || !strings.Contains(err.Error(), "BeaconEpochRounds") {
		t.Errorf("OpenJoiner on a group with BeaconEpochRounds == 0: err = %v", err)
	}

	// Role inference: client keys open a client session.
	sess, err := simHost.OpenSession(grp, cKeys[0])
	if err != nil {
		t.Fatal(err)
	}
	if sess.Role() != dissent.RoleClient {
		t.Errorf("role = %v, want client", sess.Role())
	}

	// One membership per group per host, joiners included.
	if _, err := simHost.OpenSession(grp, cKeys[1]); err == nil {
		t.Error("second membership of the same group accepted")
	}
	if _, err := simHost.OpenJoiner(churnGrp, stranger); err != nil {
		t.Fatalf("OpenJoiner on a churn-enabled group: %v", err)
	}
	if _, err := simHost.OpenSession(churnGrp, churnSKeys[0]); err == nil {
		t.Error("a member session beside a joiner of the same group accepted")
	}

	// TCP hosts require a per-session roster.
	tcpHost := newHost(t, dissent.WithHostListenAddr("127.0.0.1:0"))
	if _, err := tcpHost.OpenSession(grp, sKeys[0]); err == nil {
		t.Error("TCP OpenSession without a roster accepted")
	}
	if _, err := tcpHost.OpenJoiner(churnGrp, stranger); err == nil {
		t.Error("TCP OpenJoiner without a roster accepted")
	}
	tcpHost.Close()
	if _, err := tcpHost.OpenSession(grp, sKeys[0], dissent.WithRoster(dissent.Roster{})); err == nil {
		t.Error("OpenSession on a closed host accepted")
	}
}
