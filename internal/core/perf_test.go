package core

import (
	"bytes"
	"testing"
	"time"

	"dissent/internal/group"
	"dissent/internal/obs"
)

// TestLateSubmissionReconciledByAccumulatorDiff drives the streaming
// combine's correction path: one client's ciphertext always arrives
// after its upstream server broadcast the round inventory (but before
// the commit), so it lands in the accumulator without being part of the
// server's direct set. The commit-time diff must XOR it back out, or
// every round's cleartext would be garbage.
func TestLateSubmissionReconciledByAccumulatorDiff(t *testing.T) {
	f := newFixture(t, 2, 4, fixtureOpts{
		mutatePolicy: func(p *group.Policy) {
			p.Alpha = 0.5
			p.WindowThreshold = 0.5
		},
	})
	late := f.clients[3].ID()
	f.h.Outbound = func(from group.NodeID, m *Message) (time.Duration, bool) {
		switch {
		case m.Type == MsgClientSubmit && from == late:
			// Past the window close (~10 ms) but before the delayed
			// inventory exchange completes.
			return 11 * time.Millisecond, false
		case m.Type == MsgInventory:
			// Hold the inventory exchange open (12 ms) so the late ciphertext
			// arrives while the round is still in the inventory phase.
			return 12 * time.Millisecond, false
		}
		return 0, false
	}
	msg := []byte("on time despite the straggler")
	f.clients[0].Send(msg)
	f.runUntilRound(4, 800_000)

	if len(f.h.EventsOf(EventRoundFailed)) != 0 {
		t.Fatalf("rounds failed; violations: %v", f.violations())
	}
	if n := len(f.violations()); n != 0 {
		t.Fatalf("%d protocol violations: %v", n, f.violations())
	}
	found := false
	for _, d := range f.h.Deliveries {
		if d.Node == f.servers[0].ID() && bytes.Equal(d.Data, msg) {
			found = true
		}
	}
	if !found {
		t.Fatal("delivery lost — late ciphertext was not XORed back out of the share")
	}
	// The straggler must have been accumulated-then-reconciled at least
	// once: the servers never count it as a participant.
	if p := f.servers[0].Participation(); p != 3 {
		t.Fatalf("participation %d, want 3 (late client reconciled out)", p)
	}
	adjusts := 0
	for _, s := range f.servers {
		adjusts += s.accAdjusts
	}
	if adjusts == 0 {
		t.Fatal("reconcile path never ran — the late ciphertext missed the accumulator entirely")
	}
}

// TestPadPrefetchSurvivesEpochChurn runs epoch rotations plus a roster
// admission with the background prefetcher on (the fixture default):
// the boundary reshapes the schedule and bumps the roster version, so
// any pad prefetched under the old roster must be invalidated, and the
// next rounds must still produce decodable output. Run with -race in
// CI: the prefetch goroutine and the engine share the round's buffers
// across the handoff.
func TestPadPrefetchSurvivesEpochChurn(t *testing.T) {
	const epoch = 3
	f := newFixture(t, 2, 4, fixtureOpts{
		mutatePolicy: func(p *group.Policy) {
			p.BeaconEpochRounds = epoch
			p.Alpha = 0.5
			p.WindowThreshold = 0.6
		},
	})
	f.h.StartAll()
	f.stepUntilRound(1, 500_000)
	// Queue an operator expulsion so the next boundary carries a
	// non-empty roster update (version bump + permutation reseed).
	if err := f.servers[0].Expel(f.clients[3].ID()); err != nil {
		t.Fatal(err)
	}
	msg := []byte("across the boundary")
	f.clients[1].Send(msg)
	f.stepUntilRound(2*epoch+2, 3_000_000)

	if n := len(f.violations()); n != 0 {
		t.Fatalf("%d protocol violations: %v", n, f.violations())
	}
	for _, s := range f.servers {
		if !s.Excluded(3) {
			t.Fatalf("server %d did not apply the boundary expulsion", s.Index())
		}
	}
	found := false
	for _, d := range f.h.Deliveries {
		if bytes.Equal(d.Data, msg) {
			found = true
		}
	}
	if !found {
		t.Fatal("delivery lost across the epoch boundary")
	}
	// Prefetches must have been consumed on the steady rounds.
	if !anyPrefetchHit(f.h.Traces[f.servers[0].ID()]) {
		t.Fatalf("no prefetch hits recorded: %+v", f.h.Traces[f.servers[0].ID()])
	}
}

// anyPrefetchHit reports whether any span's pad came from the prefetch.
func anyPrefetchHit(spans []obs.RoundTrace) bool {
	for _, sp := range spans {
		if sp.PrefetchHit {
			return true
		}
	}
	return false
}

// TestPerfStatsAccumulate checks that the data-plane timings surface
// in both engines' round spans — the figures the SDK sums into
// SessionMetrics.
func TestPerfStatsAccumulate(t *testing.T) {
	f := newFixture(t, 2, 3, fixtureOpts{})
	f.clients[0].Send([]byte("time me"))
	f.runUntilRound(3, 500_000)

	sspans := f.h.Traces[f.servers[0].ID()]
	var pad, combine time.Duration
	for _, sp := range sspans {
		pad += sp.Pad
		combine += sp.Combine
	}
	if pad <= 0 {
		t.Errorf("server pad-compute time not recorded: %+v", sspans)
	}
	if combine <= 0 {
		t.Errorf("server combine time not recorded: %+v", sspans)
	}
	if !anyPrefetchHit(sspans) {
		t.Errorf("server pad prefetch never hit: %+v", sspans)
	}
	cspans := f.h.Traces[f.clients[0].ID()]
	pad, combine = 0, 0
	for _, sp := range cspans {
		pad += sp.Pad
		combine += sp.Combine
	}
	if pad <= 0 {
		t.Errorf("client pad-compute time not recorded: %+v", cspans)
	}
	if !anyPrefetchHit(cspans) {
		t.Errorf("client stream prefetch never hit: %+v", cspans)
	}
	if combine != 0 {
		t.Errorf("client combine time should be zero, got %+v", cspans)
	}
}
