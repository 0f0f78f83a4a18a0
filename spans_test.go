package dissent_test

// Round-span tests: the engine's round span is the session's one
// per-round timing record. Every timing figure in Metrics is a sum over
// the spans, and an accusation shuffle's outcome rides the first round
// span after it.

import (
	"context"
	"testing"
	"time"

	"dissent"
	"dissent/internal/adversary"
)

// spanTotals recomputes a session's span-derived metrics from its
// retained spans.
func spanTotals(spans []dissent.RoundTrace) (m dissent.SessionMetrics) {
	for _, t := range spans {
		m.PadComputeTime += t.Pad
		m.CombineTime += t.Combine
		switch {
		case t.PrefetchHit:
			m.PadPrefetchHits++
		case !t.Failed && !t.Start.IsZero():
			m.PadPrefetchMisses++
		}
		if t.Window > 0 {
			m.WindowsClosed++
			m.WindowTime += t.Window
		}
	}
	return m
}

// TestMetricsSumTheSpans runs a short SimNet session, stopped well
// inside the 128-span ring, and checks that each member's timing
// metrics equal the sums and counts over its RecentTraces: the spans
// are the only source.
func TestMetricsSumTheSpans(t *testing.T) {
	sKeys, cKeys, grp := buildGroup(t, 2, 3, testPolicy(nil))
	net := dissent.NewSimNet()
	defer net.Close()
	g := startGroup(t, grp, sKeys, cKeys, onSimNet(net))
	rounds := g.servers[0].Subscribe(dissent.EventRoundComplete)
	if err := g.clients[0].Send(context.Background(), []byte("time me")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		waitEvent(t, "certified round", rounds, func(dissent.Event) bool { return true }, 60*time.Second)
	}
	g.stop(t)

	for _, s := range []*dissent.Session{g.servers[0], g.clients[0]} {
		spans := s.RecentTraces(0)
		if len(spans) == 0 || len(spans) >= 128 {
			t.Fatalf("%v holds %d spans; the run must fit the ring", s.Role(), len(spans))
		}
		got, want := s.Metrics(), spanTotals(spans)
		if got.PadComputeTime != want.PadComputeTime || got.CombineTime != want.CombineTime ||
			got.PadPrefetchHits != want.PadPrefetchHits || got.PadPrefetchMisses != want.PadPrefetchMisses ||
			got.WindowsClosed != want.WindowsClosed || got.WindowTime != want.WindowTime {
			t.Errorf("%v metrics disagree with the span sums:\n got %+v\nwant %+v", s.Role(), got, want)
		}
		if got.PadComputeTime <= 0 || got.PadPrefetchHits == 0 {
			t.Errorf("%v recorded no pad work: %+v", s.Role(), got)
		}
	}
	if m := g.servers[0].Metrics(); m.WindowsClosed == 0 || m.WindowTime <= 0 || m.CombineTime <= 0 {
		t.Errorf("server recorded no window or combine time: %+v", m)
	}
}

// TestBlameOutcomeRidesNextSpan runs a slot jammer into a verdict and
// checks that the round the EventBlameVerdict names carries the
// shuffle's outcome in the member's span ring — at a server and at a
// client.
func TestBlameOutcomeRidesNextSpan(t *testing.T) {
	sKeys, cKeys, grp := buildGroup(t, 2, 4, testPolicy(nil))
	net := dissent.NewSimNet()
	defer net.Close()
	adv, err := adversary.New(adversary.Behavior{Kind: adversary.SlotJam, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const jammer = 3
	g := startGroup(t, grp, sKeys, cKeys, func(role dissent.Role, i int) ([]dissent.HostOption, []dissent.Option) {
		hostOpts, _ := onSimNet(net)(role, i)
		if role == dissent.RoleClient && i == jammer {
			return hostOpts, []dissent.Option{dissent.WithInterdict(adv.Interdict())}
		}
		return hostOpts, nil
	})
	defer g.stop(t)

	server, client := g.servers[0], g.clients[0]
	serverVerdicts := server.Subscribe(dissent.EventBlameVerdict)
	clientVerdicts := client.Subscribe(dissent.EventBlameVerdict)

	// Honest traffic keeps slots open for the jammer to hit.
	ctx, stopTraffic := context.WithCancel(context.Background())
	defer stopTraffic()
	go func() {
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				for i := 0; i < jammer; i++ {
					_ = g.clients[i].Send(ctx, []byte("honest traffic under a jammer"))
				}
			}
		}
	}()

	expelled := func(e dissent.Event) bool { return e.Detail == "client expelled" }
	for _, c := range []struct {
		s        *dissent.Session
		verdicts <-chan dissent.Event
	}{{server, serverVerdicts}, {client, clientVerdicts}} {
		e := waitEvent(t, "expelling verdict", c.verdicts, expelled, 120*time.Second)
		span := waitSpan(t, c.s, e.Round, 60*time.Second)
		if span.BlameVerdict != e.Detail || span.Blame <= 0 || span.BlameAccused != e.Culprit.String() {
			t.Errorf("%v span for verdict round %d = %+v; want verdict %q, accused %s, Blame > 0",
				c.s.Role(), e.Round, span, e.Detail, e.Culprit)
		}
	}
}

// waitSpan polls s's span ring until it holds round r's span.
func waitSpan(t *testing.T, s *dissent.Session, r uint64, timeout time.Duration) dissent.RoundTrace {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, span := range s.RecentTraces(0) {
			if span.Round == r {
				return span
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%v never traced round %d", s.Role(), r)
	return dissent.RoundTrace{}
}
