package dissent_test

// Byzantine-churn integration test: a scripted adversary JOINS an
// established session through the public joiner path, starts jamming
// other members' slots, and must be traced, convicted, and certifiably
// removed — after which the honest group's round rate recovers to
// within 20% of its pre-attack baseline. The whole arc runs through
// the public SDK alone (the attack behavior comes from the
// internal/adversary catalog via WithInterdict, exactly how the
// cluster scenarios script it).

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"dissent"
	"dissent/internal/adversary"
)

// measureRoundRate counts certified rounds arriving on ch for the
// window and returns rounds/second.
func measureRoundRate(t *testing.T, ch <-chan dissent.Event, window time.Duration) float64 {
	t.Helper()
	start := time.Now()
	deadline := time.After(window)
	n := 0
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				t.Fatal("round subscription closed early")
			}
			n++
		case <-deadline:
			return float64(n) / time.Since(start).Seconds()
		}
	}
}

func TestByzantineJoinerExpelledAndRateRecovers(t *testing.T) {
	policy := testPolicy(func(p *dissent.Policy) {
		p.BeaconEpochRounds = 4
		p.ReadmitCooldownRounds = 0
		p.Alpha = 0.5
		p.WindowThreshold = 0.6
		p.OpenAdmission = false
	})
	sKeys, cKeys, grp := buildGroup(t, 2, 3, policy)
	jKeys, err := dissent.GenerateClientKeys()
	if err != nil {
		t.Fatal(err)
	}
	net := dissent.NewSimNet()
	defer net.Close()

	// The joiner is an honest engine plus the catalog's slot-jam
	// behavior behind an arm switch: it joins clean, then turns.
	adv, err := adversary.New(adversary.Behavior{Kind: adversary.SlotJam, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	inner := adv.Interdict()
	var armed atomic.Bool
	jam := &dissent.Interdict{Vector: func(info dissent.VectorInfo, vec []byte) {
		if armed.Load() {
			inner.Vector(info, vec)
		}
	}}
	g := startGroup(t, grp, sKeys, cKeys, onSimNet(net))
	defer g.stop(t)

	server := g.servers[0]
	rounds := server.Subscribe(dissent.EventRoundComplete)
	joined := server.Subscribe(dissent.EventMemberJoined)
	expelCh := server.Subscribe(dissent.EventMemberExpelled)
	verdictCh := g.clients[0].Subscribe(dissent.EventBlameVerdict)
	waitEvent(t, "first certified round", rounds, func(dissent.Event) bool { return true }, 60*time.Second)

	// Continuous honest traffic keeps slots open for the jammer to hit
	// and gives the honest victims fresh disruptions to witness.
	trafficCtx, stopTraffic := context.WithCancel(context.Background())
	defer stopTraffic()
	go func() {
		tick := time.NewTicker(30 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-trafficCtx.Done():
				return
			case <-tick.C:
				_ = g.clients[0].Send(trafficCtx, []byte("honest steady traffic under byzantine churn"))
				_ = g.clients[1].Send(trafficCtx, []byte("more honest steady traffic"))
			}
		}
	}()

	// Admit and open the (still honest) joiner on its own Host. Closed
	// admission: the pre-approval must land on the joiner's contact
	// server, definition server 0.
	if err := contactServer(t, g, grp).Admit(dissent.EncodePublicKey(grp, jKeys)); err != nil {
		t.Fatal(err)
	}
	joinHost := newHost(t, dissent.WithHostSimNet(net))
	defer joinHost.Close()
	joiner, err := joinHost.OpenJoiner(grp, jKeys, dissent.WithInterdict(jam))
	if err != nil {
		t.Fatal(err)
	}
	waitEvent(t, "byzantine joiner admission", joined, func(e dissent.Event) bool {
		return e.Culprit == joiner.ID()
	}, 120*time.Second)

	// Pre-attack baseline round rate.
	preRate := measureRoundRate(t, rounds, 3*time.Second)
	if preRate <= 0 {
		t.Fatalf("no certified rounds in the baseline window")
	}

	// Turn: the admitted member starts jamming. The honest victims must
	// detect, accuse, convict (verdict at an honest client), and the
	// servers must certify the removal at an epoch boundary.
	armed.Store(true)
	waitEvent(t, "blame verdict against the jammer", verdictCh, func(e dissent.Event) bool {
		return e.Culprit == joiner.ID()
	}, 120*time.Second)
	waitEvent(t, "certified expulsion of the jammer", expelCh, func(e dissent.Event) bool {
		return e.Culprit == joiner.ID()
	}, 120*time.Second)
	armed.Store(false)

	// Recovery: drain the subscription backlog accumulated while we
	// waited on the expulsion, then measure the post-attack rate fresh.
	for {
		select {
		case <-rounds:
			continue
		default:
		}
		break
	}
	postRate := measureRoundRate(t, rounds, 3*time.Second)
	if postRate < 0.8*preRate {
		t.Fatalf("round rate did not recover: pre-attack %.1f/s, post-expulsion %.1f/s (< 80%%)", preRate, postRate)
	}
	t.Logf("round rate: pre-attack %.1f/s, post-expulsion %.1f/s", preRate, postRate)
}
