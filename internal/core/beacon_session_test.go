package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"dissent/internal/beacon"
	"dissent/internal/group"
)

// TestBeaconChainGrowsWithRounds checks that every node — servers via
// the round protocol's commit–reveal, clients via certified outputs —
// maintains an identical, fully verifiable beacon chain replica.
func TestBeaconChainGrowsWithRounds(t *testing.T) {
	f := newFixture(t, 3, 4, fixtureOpts{
		mutatePolicy: func(p *group.Policy) { p.BeaconEpochRounds = 3 },
	})
	f.runUntilRound(5, 800_000)

	ref := f.servers[0].BeaconChain()
	if ref == nil {
		t.Fatal("beacon disabled despite policy")
	}
	if ref.Len() < 5 {
		t.Fatalf("server 0 chain has %d entries after 5+ rounds; violations: %v",
			ref.Len(), f.violations())
	}
	if err := ref.Verify(); err != nil {
		t.Fatalf("server 0 chain invalid: %v", err)
	}
	for _, s := range f.servers[1:] {
		c := s.BeaconChain()
		if c.Get(4) == nil || c.Get(4).Value != ref.Get(4).Value {
			t.Fatalf("server %d beacon diverged at round 4", s.Index())
		}
		if err := c.Verify(); err != nil {
			t.Fatalf("server %d chain invalid: %v", s.Index(), err)
		}
	}
	for _, cl := range f.clients {
		c := cl.BeaconChain()
		if c.Get(4) == nil || c.Get(4).Value != ref.Get(4).Value {
			t.Fatalf("client %d beacon diverged at round 4", cl.Index())
		}
		if err := c.Verify(); err != nil {
			t.Fatalf("client %d chain invalid: %v", cl.Index(), err)
		}
	}
}

// TestBeaconDrivesScheduleRotation checks the acceptance criterion:
// the slot permutation is identical on every node and changes exactly
// at epoch boundaries, derived from beacon output.
func TestBeaconDrivesScheduleRotation(t *testing.T) {
	// 8 slots: the chance a beacon-derived rotation is the identity
	// permutation is 1/8! — negligible, so the assertions are stable.
	const epoch = 3
	f := newFixture(t, 2, 8, fixtureOpts{
		mutatePolicy: func(p *group.Policy) { p.BeaconEpochRounds = epoch },
	})
	// Keep traffic flowing so rotated layouts carry real payloads.
	msg := []byte("rotating message")
	f.clients[3].Send(msg)
	f.runUntilRound(2*epoch+1, 1_500_000)

	// Rotation events fired on servers and clients at epoch boundaries.
	rotated := f.h.EventsOf(EventEpochRotated)
	if len(rotated) == 0 {
		t.Fatalf("no epoch rotations observed; violations: %v", f.violations())
	}
	for _, e := range rotated {
		// The event's Round is the boundary round: the first of the new
		// epoch, laid out under the rotated permutation.
		if e.Round%epoch != 0 {
			t.Fatalf("rotation at round %d, not an epoch boundary", e.Round)
		}
	}

	// All nodes agree on the (non-identity, beacon-derived) permutation.
	perm := f.servers[0].SchedulePermutation()
	identity := true
	for i, v := range perm {
		if v != i {
			identity = false
			break
		}
	}
	if identity {
		t.Fatalf("permutation still identity after %d rounds (epoch %d)", 2*epoch+1, epoch)
	}
	for _, s := range f.servers[1:] {
		got := s.SchedulePermutation()
		for i := range perm {
			if got[i] != perm[i] {
				t.Fatalf("server %d permutation %v != server 0 %v", s.Index(), got, perm)
			}
		}
	}
	for _, cl := range f.clients {
		got := cl.SchedulePermutation()
		for i := range perm {
			if got[i] != perm[i] {
				t.Fatalf("client %d permutation %v != server 0 %v", cl.Index(), got, perm)
			}
		}
	}

	// The anonymous message still arrives intact, attributed to the
	// sender's slot, under rotated layouts.
	delivered := 0
	for _, d := range f.h.Deliveries {
		if bytes.Equal(d.Data, msg) {
			delivered++
			if d.Slot != f.clients[3].Slot() {
				t.Fatalf("delivery slot %d, want %d", d.Slot, f.clients[3].Slot())
			}
		}
	}
	if delivered == 0 {
		t.Fatalf("message lost under rotation; violations: %v", f.violations())
	}
}

// TestBeaconGenesisBoundToSession checks the replay defence: once the
// schedule certifies, every replica's chain genesis is the
// SessionGenesis derived from the schedule-certificate digest — not
// the group-wide pre-session value — and an external verifier can
// recompute it from the served certificate with group keys alone. A
// chain grown under a different session's certificate therefore fails
// verification against the live genesis.
func TestBeaconGenesisBoundToSession(t *testing.T) {
	f := newFixture(t, 2, 3, fixtureOpts{
		mutatePolicy: func(p *group.Policy) { p.BeaconEpochRounds = 2 },
	})
	f.runUntilRound(2, 400_000)

	srv := f.servers[0]
	keys, sigs := srv.ScheduleCertificate()
	if keys == nil || sigs == nil {
		t.Fatal("no schedule certificate after setup")
	}
	digest, err := VerifyScheduleCert(f.def, keys, sigs)
	if err != nil {
		t.Fatalf("schedule certificate rejected: %v", err)
	}
	want := beacon.SessionGenesis(f.def.GroupID(), digest)
	if got := srv.BeaconChain().Genesis(); got != want {
		t.Fatalf("server genesis %x, want session genesis %x", got[:8], want[:8])
	}
	if pre := beacon.GenesisValue(f.def.GroupID()); srv.BeaconChain().Genesis() == pre {
		t.Fatal("chain genesis still the pre-session group value")
	}
	for _, s := range f.servers[1:] {
		if s.BeaconChain().Genesis() != want {
			t.Fatalf("server %d genesis diverged", s.Index())
		}
	}
	for _, cl := range f.clients {
		if cl.BeaconChain().Genesis() != want {
			t.Fatalf("client %d genesis diverged", cl.Index())
		}
	}

	// A verifier anchored at the pre-session genesis — the situation of
	// someone replaying an archived chain's context — must reject the
	// live chain's first entry.
	stale := beacon.NewChain(f.def.Group(), f.def.ServerPubKeys(), beacon.GenesisValue(f.def.GroupID()), nil)
	if err := stale.Append(srv.BeaconChain().Get(0)); err == nil {
		t.Fatal("live entry accepted under the pre-session genesis")
	}
	// Tampered certificates must not verify.
	badSigs := append([][]byte(nil), sigs...)
	badSigs[0] = append([]byte(nil), badSigs[0]...)
	badSigs[0][0] ^= 1
	if _, err := VerifyScheduleCert(f.def, keys, badSigs); err == nil {
		t.Fatal("tampered schedule certificate verified")
	}
}

// TestBeaconDisabledByPolicy checks the beacon-off path stays clean:
// no chains, no rotation, rounds progress.
func TestBeaconDisabledByPolicy(t *testing.T) {
	f := newFixture(t, 2, 3, fixtureOpts{
		mutatePolicy: func(p *group.Policy) { p.BeaconEpochRounds = 0 },
	})
	f.runUntilRound(3, 400_000)
	if f.servers[0].BeaconChain() != nil || f.clients[0].BeaconChain() != nil {
		t.Fatal("beacon chain exists despite disabled policy")
	}
	if got := len(f.h.EventsOf(EventEpochRotated)); got != 0 {
		t.Fatalf("%d rotation events with beacon off", got)
	}
	for _, s := range f.servers {
		if s.Round() < 3 {
			t.Fatalf("rounds stalled with beacon off; violations: %v", f.violations())
		}
	}
}

// TestRotationAfterFailedRoundDepth2: at pipeline depth 2 a round fails
// inside an epoch, and the group then crosses two epoch boundaries with
// every client sending each round. The failed round moves the head but
// not the schedule's own round counter; the rotation must still land on
// the boundary — between the same two rounds on every replica — so no
// client sees its slot garbled or requests a shuffle, and every member
// decodes byte-identical outputs.
func TestRotationAfterFailedRoundDepth2(t *testing.T) {
	const (
		epoch  = 5
		failed = 2
		last   = 2*epoch + 3
	)
	f := newFixture(t, 2, 4, fixtureOpts{
		mutatePolicy: func(p *group.Policy) {
			p.BeaconEpochRounds = epoch
			p.HardTimeout = 2 * time.Second
		},
		mutateOpts: func(o *Options) { o.PipelineDepth = 2 },
	})
	// Every submission for the failed round is lost, resends included.
	f.h.Outbound = func(from group.NodeID, m *Message) (time.Duration, bool) {
		return 0, m.Type == MsgClientSubmit && m.Round == failed
	}
	f.h.StartAll()
	for r := uint64(0); r <= last; r++ {
		f.stepUntilRound(r, 400_000)
		for i, c := range f.clients {
			c.Send([]byte(fmt.Sprintf("client %d after round %d", i, r)))
		}
	}
	f.stepUntilRound(last+2, 400_000)

	if len(f.h.EventsOf(EventRoundFailed)) == 0 {
		t.Fatalf("round %d did not fail", failed)
	}
	if len(f.h.EventsOf(EventEpochRotated)) == 0 {
		t.Fatal("no epoch rotation")
	}
	for _, kind := range []EventKind{EventDisruptionDetected, EventBlameStarted, EventProtocolViolation} {
		if evs := f.h.EventsOf(kind); len(evs) > 0 {
			t.Errorf("%d %s events, want none; first: %+v", len(evs), kind, evs[0])
		}
	}
	for _, c := range f.clients {
		if c.witness != nil {
			t.Errorf("client %d holds a witness for round %d", c.Index(), c.witness.round)
		}
	}

	// Byte-identical decoding: every member delivers the same payloads for
	// every round all of them have retired.
	heads := []uint64{}
	for _, s := range f.servers {
		heads = append(heads, s.head())
	}
	for _, c := range f.clients {
		heads = append(heads, c.head())
	}
	upTo := slices.Min(heads)
	if upTo <= 2*epoch+1 {
		t.Fatalf("members retired only up to round %d", upTo)
	}
	decoded := map[group.NodeID][]string{}
	for _, d := range f.h.Deliveries {
		if d.Round < upTo {
			decoded[d.Node] = append(decoded[d.Node], fmt.Sprintf("%d/%d/%q", d.Round, d.Slot, d.Data))
		}
	}
	want := decoded[f.servers[0].ID()]
	if len(want) < int(upTo)-epoch {
		t.Fatalf("server 0 decoded only %d payloads below round %d", len(want), upTo)
	}
	for id, got := range decoded {
		if !slices.Equal(got, want) {
			t.Errorf("member %s decoded\n %q\nserver 0\n %q", id, got, want)
		}
	}
	if len(decoded) != len(f.servers)+len(f.clients) {
		t.Errorf("%d members decoded anything, want all %d", len(decoded), len(f.servers)+len(f.clients))
	}
}

// TestBeaconSurvivesFailedRound checks that hard-timeout rounds (which
// produce no beacon entry) leave gaps the chain tolerates: subsequent
// entries chain across the gap and still verify on every replica.
func TestBeaconSurvivesFailedRound(t *testing.T) {
	f := newFixture(t, 2, 2, fixtureOpts{
		mutatePolicy: func(p *group.Policy) {
			p.BeaconEpochRounds = 2
			p.HardTimeout = 2 * time.Second
		},
	})
	// Drop every client submission for round 1 so it fails at the hard
	// timeout and completes as an empty round with no beacon entry.
	f.h.Outbound = func(from group.NodeID, m *Message) (time.Duration, bool) {
		return 0, m.Type == MsgClientSubmit && m.Round == 1
	}
	f.runUntilRound(4, 600_000)

	failed := f.h.EventsOf(EventRoundFailed)
	if len(failed) == 0 {
		t.Fatal("round 1 did not fail despite dropped submissions")
	}
	ref := f.servers[0].BeaconChain()
	if err := ref.Verify(); err != nil {
		t.Fatalf("chain invalid: %v", err)
	}
	if ref.Get(1) != nil {
		t.Fatal("failed round produced a beacon entry")
	}
	if ref.Get(0) == nil || ref.Get(2) == nil {
		t.Fatalf("chain missing entries around the gap (len %d)", ref.Len())
	}
	if ref.Get(2).Prev != ref.Get(0).Value {
		t.Fatal("entry 2 does not chain across the round-1 gap")
	}
	// Clients may trail the servers by one in-flight output, but their
	// chains must be verified prefixes of the servers' chain.
	for _, cl := range f.clients {
		c := cl.BeaconChain()
		if err := c.Verify(); err != nil {
			t.Fatalf("client %d chain invalid: %v", cl.Index(), err)
		}
		latest := c.Latest()
		if latest == nil || latest.Round < 2 {
			t.Fatalf("client %d chain too short", cl.Index())
		}
		if want := ref.Get(latest.Round); want == nil || want.Value != latest.Value {
			t.Fatalf("client %d diverged at round %d", cl.Index(), latest.Round)
		}
	}
}
