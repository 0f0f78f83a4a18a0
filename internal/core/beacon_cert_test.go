package core

import (
	"bytes"
	"fmt"
	"math/big"
	"testing"
	"time"

	"dissent/internal/beacon"
	"dissent/internal/crypto"
	"dissent/internal/group"
	"dissent/internal/wire"
)

// The round certificate is the beacon entry: these tests check what
// that makes of a withheld partial response, of pipelining, and of the
// round output's size.

// TestWithheldCertifyRetriesWithFreshEntry: server 2 withholds its
// Certify for the target round while the others send theirs, so it
// alone can compute the round's certificate — and with it the beacon
// value — before anyone else. Dropping that value, it forces a retry by
// reopening the round at a recovery attempt (what a restart does). The
// round retries once and certifies with a different entry, under fresh
// nonces, that verifies on every member, and no honest server is
// charged with anything.
func TestWithheldCertifyRetriesWithFreshEntry(t *testing.T) {
	const epoch, target, w = 12, 6, 2
	d := newDurableFixture(t, epoch)
	f := d.fixture
	wid := f.def.Servers[w].ID
	const armed, withholding, back = 0, 1, 2
	state := armed
	f.h.Outbound = func(from group.NodeID, m *Message) (time.Duration, bool) {
		if state == armed && from == wid && m.Type == MsgCertify && m.Round == target {
			state = withholding
			d.kill(w)
		}
		return 0, state == withholding && from == wid
	}
	tr := recordCerts(f)
	f.h.StartAll()
	for i := 0; i < 2_000_000 && state == armed && f.h.Net.Step(); i++ {
	}
	if state != withholding {
		t.Fatal("server 2 never reached the target round's certify")
	}
	first := func(si int) []byte {
		rs := tr.responses[certKey{si, target, 0}]
		if len(rs) == 0 {
			return nil
		}
		return rs[0]
	}
	for i := 0; i < 2_000_000 && (first(0) == nil || first(1) == nil) && f.h.Net.Step(); i++ {
	}

	// Every partial response of the first attempt is now out, server 2's
	// only to itself: it holds the certificate and the value it fixes.
	peer := f.servers[0]
	rs := peer.rounds[target]
	if rs == nil || rs.attempt != 0 || rs.phase != rpCertify {
		t.Fatalf("server 0 is not waiting to certify round %d at attempt 0", target)
	}
	z := new(big.Int)
	for si := range f.servers {
		zi := first(si)
		if zi == nil {
			t.Fatalf("server %d sent no partial response for round %d", si, target)
		}
		z.Add(z, new(big.Int).SetBytes(zi))
	}
	g := f.def.Group()
	sig := crypto.Signature{C: rs.certChal, Z: z.Mod(z, g.Order())}
	if err := crypto.Verify(g, peer.cert.Key(), beacon.CertContext, rs.certDigest, sig); err != nil {
		t.Fatalf("the withheld certificate does not verify: %v", err)
	}
	head := peer.BeaconChain().Head()
	withheld := beacon.NewEntry(target, uint32(len(rs.included)), rs.certClear, crypto.EncodeSignature(g, sig), head)

	f.step(3000)
	state = back
	d.restart(w)
	f.stepUntilRound(target+3, 4_000_000)
	for _, s := range f.servers {
		if s.Round() <= target+3 {
			t.Fatalf("server %d stuck at round %d after the retry; violations: %v", s.Index(), s.Round(), f.violations())
		}
	}
	tr.check(t)

	// One retry: every server revealed a nonce for the target round at
	// the first attempt and at exactly one recovery attempt.
	for si := range f.servers {
		var pre, post int
		for _, a := range tr.attemptsRevealed()[[2]uint64{uint64(si), target}] {
			if a <= maxAttempts {
				pre++
			} else {
				post++
			}
		}
		if pre != 1 || post != 1 {
			t.Errorf("server %d revealed nonces in %d first and %d recovery attempts of round %d, want 1 and 1", si, pre, post, target)
		}
	}

	got := peer.BeaconChain().Get(target)
	if got == nil {
		t.Fatalf("round %d has no beacon entry", target)
	}
	if got.Value == withheld.Value || bytes.Equal(got.Sig, withheld.Sig) {
		t.Fatal("the retry certified the withheld entry")
	}
	if got.Prev != withheld.Prev {
		t.Fatal("the retry chains from another head")
	}
	members := []*node{}
	for _, s := range f.servers {
		members = append(members, &s.node)
	}
	for _, c := range f.clients {
		members = append(members, &c.node)
	}
	for _, n := range members {
		c := n.BeaconChain()
		if e := c.Get(target); e == nil || !bytes.Equal(wire.EncodeRecord(e), wire.EncodeRecord(got)) {
			t.Errorf("member %s holds another entry for round %d", n.id, target)
		}
		if err := c.Verify(); err != nil {
			t.Errorf("member %s chain: %v", n.id, err)
		}
	}
	for _, ev := range f.h.EventsOf(EventMisbehavior) {
		if ev.Culprit != wid {
			t.Errorf("an honest member was charged: %+v", ev)
		}
	}
}

// TestBeaconChainsIdenticalAtEveryDepth: at pipeline depths 1–4, across
// epoch boundaries, every member's beacon chain — servers certifying,
// clients rebuilding entries from the certified outputs — is
// byte-identical and verifies.
func TestBeaconChainsIdenticalAtEveryDepth(t *testing.T) {
	const epoch, last = 4, 13
	for depth := 1; depth <= 4; depth++ {
		t.Run(fmt.Sprintf("depth-%d", depth), func(t *testing.T) {
			f := newFixture(t, 3, 4, fixtureOpts{
				mutatePolicy: func(p *group.Policy) { p.BeaconEpochRounds = epoch },
				mutateOpts:   func(o *Options) { o.PipelineDepth = depth },
			})
			f.h.StartAll()
			for r := uint64(0); r <= last; r++ {
				f.stepUntilRound(r, 400_000)
				f.clients[int(r)%len(f.clients)].Send([]byte(fmt.Sprintf("round %d", r)))
			}
			f.stepUntilRound(last+2, 800_000)

			members := []*node{}
			for _, s := range f.servers {
				members = append(members, &s.node)
			}
			for _, c := range f.clients {
				members = append(members, &c.node)
			}
			upTo := uint64(1 << 62)
			for _, n := range members {
				if l := n.BeaconChain().Latest(); l == nil || l.Round < upTo {
					upTo = 0
					if l != nil {
						upTo = l.Round
					}
				}
			}
			if upTo < last {
				t.Fatalf("some member's chain ends at round %d; violations: %v", upTo, f.violations())
			}
			chainBytes := func(c *beacon.Chain) []byte {
				var b []byte
				for _, e := range c.RangeFrom(0, 1<<20) {
					if e.Round <= upTo {
						b = append(b, wire.EncodeRecord(e)...)
					}
				}
				return b
			}
			want := chainBytes(members[0].BeaconChain())
			for _, n := range members {
				if !bytes.Equal(chainBytes(n.BeaconChain()), want) {
					t.Errorf("member %s's chain differs from server 0's through round %d", n.id, upTo)
				}
				if err := n.BeaconChain().Verify(); err != nil {
					t.Errorf("member %s chain: %v", n.id, err)
				}
			}
		})
	}
}

// TestRoundOutputCarriesOneCertificate: with the beacon on, a certified
// output is its cleartext, one 64-byte certificate, the count and the
// flag — nothing per server. The layout before the certificate became
// the entry also listed every server's 64-byte beacon share.
func TestRoundOutputCarriesOneCertificate(t *testing.T) {
	f := newFixture(t, 3, 4, fixtureOpts{
		mutatePolicy: func(p *group.Policy) { p.BeaconEpochRounds = 3 },
	})
	var outputs [][]byte
	f.h.Outbound = func(from group.NodeID, m *Message) (time.Duration, bool) {
		if m.Type == MsgOutput {
			outputs = append(outputs, m.Body)
		}
		return 0, false
	}
	f.runUntilRound(4, 800_000)
	if len(outputs) == 0 {
		t.Fatal("no output sent")
	}
	for _, body := range outputs {
		ro, err := DecodeRoundOutput(body)
		if err != nil {
			t.Fatal(err)
		}
		if ro.Failed {
			continue
		}
		const sigLen = 64
		// Cleartext and signature lengths, the signature count, the
		// count, the flag.
		if want := len(ro.Cleartext) + sigLen + 4 + 4 + 4 + 4 + 1; len(body) != want {
			t.Fatalf("certified output of %d cleartext bytes is %d bytes, want %d", len(ro.Cleartext), len(body), want)
		}
		parent := parentRoundOutput{*ro, make([][]byte, len(f.servers))}
		for i := range parent.beacon {
			parent.beacon[i] = make([]byte, sigLen)
		}
		if shrink := len(wire.Encode(&parent)) - len(body); shrink < len(f.servers)*sigLen {
			t.Fatalf("the output shrank by %d bytes, want at least M × 64 = %d", shrink, len(f.servers)*sigLen)
		}
	}
}

// parentRoundOutput is the RoundOutput layout before the round
// certificate became the beacon entry: the per-server beacon shares
// followed the flag.
type parentRoundOutput struct {
	RoundOutput
	beacon [][]byte
}

func (p *parentRoundOutput) Fields(c *wire.Codec) {
	p.RoundOutput.Fields(c)
	c.ByteSlices(&p.beacon)
}
