package dissent_test

// Membership-churn integration tests: a client dies mid-window (servers
// cover, the round still certifies), a client is expelled by server
// policy, and the expellee rejoins at the next epoch boundary with the
// roster version advancing — through the public SDK alone, over the
// in-process SimNet (with fault injection) and over real loopback TCP.
// A brand-new joiner attaching mid-session is covered over both
// fabrics too.

import (
	"context"
	"testing"
	"time"

	"dissent"
)

// churnPolicy is the fast-epoch policy the churn tests share.
func churnPolicy() dissent.Policy {
	return testPolicy(func(p *dissent.Policy) {
		p.BeaconEpochRounds = 4
		p.ReadmitCooldownRounds = 0
		p.Alpha = 0.5
		p.WindowThreshold = 0.6
		p.OpenAdmission = false
	})
}

// waitEvent drains ch until match returns true or the deadline fires.
func waitEvent(t *testing.T, what string, ch <-chan dissent.Event, match func(dissent.Event) bool, d time.Duration) dissent.Event {
	t.Helper()
	deadline := time.After(d)
	for {
		select {
		case e, ok := <-ch:
			if !ok {
				t.Fatalf("%s: subscription closed early", what)
			}
			if match(e) {
				return e
			}
		case <-deadline:
			t.Fatalf("%s: not observed after %v", what, d)
		}
	}
}

// driveChurnScenario runs the acceptance scenario over an arbitrary
// member placement: kill a client mid-window, expel another by policy,
// rejoin it at an epoch boundary, and verify it resumes sending and
// receiving with the roster version strictly increasing.
func driveChurnScenario(t *testing.T, grp *dissent.Group, sKeys, cKeys []dissent.Keys, place placement) {
	t.Helper()
	g := startGroup(t, grp, sKeys, cKeys, place)
	defer g.stop(t)

	// Pick scenario members by definition index so the killed client and
	// the expellee attach to different upstream servers: a server whose
	// entire client set is dead or expelled degrades (correctly, §3.7)
	// to hard-timeout rounds, which is paper-faithful but would slow
	// this test to a crawl. Definition indices 0/2 attach to server 0,
	// index 1 to server 1 (UpstreamServer = idx mod numServers).
	byDefIdx := func(idx int) *dissent.Session {
		for _, n := range g.clients {
			if n.Index() == idx {
				return n
			}
		}
		t.Fatalf("no client with definition index %d", idx)
		return nil
	}
	server := g.servers[0]
	expellee := byDefIdx(2) // upstream server 0
	observer := byDefIdx(0) // upstream server 0
	killed := byDefIdx(1)   // upstream server 1 (server 1 keeps index 3 alive)
	rounds := server.Subscribe(dissent.EventRoundComplete)
	roster := server.Subscribe(dissent.EventMemberExpelled, dissent.EventMemberJoined, dissent.EventRosterChanged)
	obsRoster := observer.Subscribe(dissent.EventMemberJoined)
	selfExpel := expellee.Subscribe(dissent.EventMemberExpelled)

	// A certified round first.
	waitEvent(t, "first certified round", rounds, func(dissent.Event) bool { return true }, 60*time.Second)

	// Kill a client mid-window: close its session abruptly. Rounds must
	// keep certifying — the servers cover the silent client (§3.5).
	killed.Close()
	waitEvent(t, "round after client death", rounds, func(dissent.Event) bool { return true }, 60*time.Second)
	waitEvent(t, "second round after client death", rounds, func(dissent.Event) bool { return true }, 60*time.Second)

	// Expel client 2 by server policy; the removal lands at the next
	// epoch boundary as a certified roster update.
	v0 := server.RosterVersion()
	if err := server.Expel(expellee.ID()); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, "expulsion", roster, func(e dissent.Event) bool {
		return e.Kind == dissent.EventMemberExpelled && e.Culprit == expellee.ID()
	}, 60*time.Second)
	v1 := server.RosterVersion()
	if v1 <= v0 {
		t.Fatalf("roster version %d did not advance past %d with the expulsion", v1, v0)
	}

	// The expellee learns of its own expulsion, then rejoins;
	// re-admission lands at a later boundary.
	waitEvent(t, "expulsion at the expellee", selfExpel, func(e dissent.Event) bool {
		return e.Culprit == expellee.ID()
	}, 60*time.Second)
	// Re-admission needs live rounds to cross an epoch boundary; under a
	// CPU-starved parallel test run those real-time rounds slow down, so
	// this deadline is deliberately generous.
	rejoinCtx, cancelRejoin := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancelRejoin()
	if err := expellee.Rejoin(rejoinCtx); err != nil {
		t.Fatalf("Rejoin: %v", err)
	}
	waitEvent(t, "re-admission at a server", roster, func(e dissent.Event) bool {
		return e.Kind == dissent.EventMemberJoined && e.Culprit == expellee.ID()
	}, 60*time.Second)
	// Other clients observe the re-admission too.
	waitEvent(t, "re-admission at an observer client", obsRoster, func(e dissent.Event) bool {
		return e.Culprit == expellee.ID()
	}, 60*time.Second)
	v2 := server.RosterVersion()
	if v2 <= v1 {
		t.Fatalf("roster version %d did not advance past %d with the re-admission", v2, v1)
	}

	// The rejoined client resumes sending and receiving.
	const payload = "rejoined and speaking"
	if err := expellee.Send(context.Background(), []byte(payload)); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(60 * time.Second)
	for _, node := range []*dissent.Session{expellee, observer} {
		for {
			var got dissent.RoundOutput
			var ok bool
			select {
			case got, ok = <-node.Messages():
				if !ok {
					t.Fatal("message channel closed early")
				}
			case <-deadline:
				t.Fatalf("rejoined client's payload never reached %v %d", node.Role(), node.Index())
			}
			if string(got.Data) == payload {
				break
			}
		}
	}

	// Versions agree across roles, and pipeline occupancy never exceeds
	// the configured depth (1 for serial runs).
	if sv, cv := server.RosterVersion(), observer.RosterVersion(); cv > sv {
		t.Fatalf("client version %d ahead of server %d", cv, sv)
	}
	if m := server.Metrics(); m.RoundsInFlight > m.PipelineDepth {
		t.Fatalf("rounds in flight %d exceed pipeline depth %d", m.RoundsInFlight, m.PipelineDepth)
	}
}

// TestChurnExpelRejoinOverSimNet runs the churn acceptance scenario on
// the in-process fabric, with link faults injected on the dead
// client's links (drop everything — a crash plus network blackout).
func TestChurnExpelRejoinOverSimNet(t *testing.T) {
	policy := churnPolicy()
	sKeys, cKeys, grp := buildGroup(t, 2, 5, policy)
	net := dissent.NewSimNet()
	defer net.Close()
	net.SetFaultSeed(7)
	net.SetLatency(func(from, to dissent.NodeID) time.Duration { return time.Millisecond })
	// Mild jitter on every server-client link exercises the ordered
	// delivery guarantee under the full protocol.
	for _, ck := range cKeys {
		for _, sk := range sKeys {
			net.SetLinkFault(memberID(grp, ck), memberID(grp, sk), dissent.FaultSpec{
				Jitter: 2 * time.Millisecond,
			})
		}
	}
	driveChurnScenario(t, grp, sKeys, cKeys, onSimNet(net))
}

// TestChurnExpelRejoinPipelinedSimNet reruns the churn acceptance
// scenario with every member at pipeline depth 2: expulsion and
// re-admission land at epoch boundaries, where the two-deep pipeline
// must drain to depth 1 before the roster and beacon rotate — a failed
// drain diverges the group's slot layouts and the scenario stalls. The
// rejoined member's welcome carries the donor's pending pipeline
// state, so its payload round-tripping proves mid-pipeline joins too.
func TestChurnExpelRejoinPipelinedSimNet(t *testing.T) {
	policy := churnPolicy()
	sKeys, cKeys, grp := buildGroup(t, 2, 5, policy)
	net := dissent.NewSimNet()
	defer net.Close()
	net.SetFaultSeed(11)
	net.SetLatency(func(from, to dissent.NodeID) time.Duration { return time.Millisecond })
	for _, ck := range cKeys {
		for _, sk := range sKeys {
			net.SetLinkFault(memberID(grp, ck), memberID(grp, sk), dissent.FaultSpec{
				Jitter: 2 * time.Millisecond,
			})
		}
	}
	driveChurnScenario(t, grp, sKeys, cKeys, onSimNet(net, dissent.WithPipelineDepth(2)))
}

// TestChurnExpelRejoinOverTCP runs the same scenario over loopback TCP.
func TestChurnExpelRejoinOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time TCP test")
	}
	policy := churnPolicy()
	policy.WindowMin = 20 * time.Millisecond
	sKeys, cKeys, grp := buildGroup(t, 2, 5, policy)
	place, _ := onTCP(t, grp, sKeys, cKeys)
	driveChurnScenario(t, grp, sKeys, cKeys, place)
}

// driveJoinerScenario admits a brand-new member mid-session and checks
// it becomes a full participant. The joiner's key is pre-approved
// through Session.Admit on the contact server (definition server 0) —
// exercising the closed admission policy path — and then the joiner
// opens on its own Host with joinOpts.
func driveJoinerScenario(t *testing.T, grp *dissent.Group, sKeys, cKeys []dissent.Keys, place placement,
	jKeys dissent.Keys, joinHost *dissent.Host, joinOpts ...dissent.Option) {
	t.Helper()
	g := startGroup(t, grp, sKeys, cKeys, place)
	defer g.stop(t)

	server := g.servers[0]
	rounds := server.Subscribe(dissent.EventRoundComplete)
	joined := server.Subscribe(dissent.EventMemberJoined)
	waitEvent(t, "first certified round", rounds, func(dissent.Event) bool { return true }, 60*time.Second)

	if err := contactServer(t, g, grp).Admit(dissent.EncodePublicKey(grp, jKeys)); err != nil {
		t.Fatal(err)
	}
	defer joinHost.Close()
	joiner, err := joinHost.OpenJoiner(grp, jKeys, joinOpts...)
	if err != nil {
		t.Fatal(err)
	}

	waitEvent(t, "joiner admission", joined, func(e dissent.Event) bool {
		return e.Culprit == joiner.ID()
	}, 60*time.Second)

	// The joiner participates: its payload surfaces at an old client.
	const payload = "first words of a mid-session joiner"
	if err := joiner.Send(context.Background(), []byte(payload)); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(60 * time.Second)
	for _, node := range []*dissent.Session{g.clients[0], joiner} {
		for {
			var got dissent.RoundOutput
			var ok bool
			select {
			case got, ok = <-node.Messages():
				if !ok {
					t.Fatal("message channel closed early")
				}
			case <-deadline:
				t.Fatalf("joiner payload never reached %v %d", node.Role(), node.Index())
			}
			if string(got.Data) == payload {
				break
			}
		}
	}
	if v := server.RosterVersion(); v == 0 {
		t.Fatal("roster version still 0 after an admission")
	}
}

// contactServer returns the running session of definition server 0, the
// server a joiner contacts (startGroup orders sessions by key, not by
// definition index).
func contactServer(t *testing.T, g *sdkGroup, grp *dissent.Group) *dissent.Session {
	t.Helper()
	for _, s := range g.servers {
		if s.ID() == grp.Servers[0].ID {
			return s
		}
	}
	t.Fatal("contact server not running")
	return nil
}

// TestJoinerOverSimNet admits a new member over the in-process fabric.
func TestJoinerOverSimNet(t *testing.T) {
	policy := churnPolicy()
	sKeys, cKeys, grp := buildGroup(t, 2, 3, policy)
	jKeys, err := dissent.GenerateClientKeys()
	if err != nil {
		t.Fatal(err)
	}
	net := dissent.NewSimNet()
	defer net.Close()
	driveJoinerScenario(t, grp, sKeys, cKeys, onSimNet(net),
		jKeys, newHost(t, dissent.WithHostSimNet(net)))
}

// TestJoinerOverTCP admits a new member over loopback TCP: the joiner
// runs on a Host of its own, advertises that Host's address, and
// servers attach it to their fabric mid-session.
func TestJoinerOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time TCP test")
	}
	policy := churnPolicy()
	policy.WindowMin = 20 * time.Millisecond
	sKeys, cKeys, grp := buildGroup(t, 2, 3, policy)
	jKeys, err := dissent.GenerateClientKeys()
	if err != nil {
		t.Fatal(err)
	}
	// Bound before the members' ports are reserved, so none of them can
	// be handed the joiner's port.
	joinHost := newHost(t, dissent.WithHostListenAddr("127.0.0.1:0"))
	place, roster := onTCP(t, grp, sKeys, cKeys)
	// The joiner's roster needs only the servers it contacts; its own
	// address travels in the join request (WithAdvertiseAddr) and is
	// attached to the server fabric by the roster update.
	driveJoinerScenario(t, grp, sKeys, cKeys, place, jKeys, joinHost,
		dissent.WithAdvertiseAddr(joinHost.Addr()),
		dissent.WithRoster(roster))
}
