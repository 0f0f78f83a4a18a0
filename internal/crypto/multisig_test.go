package crypto

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// msSession is one complete signing session over a fresh signer set:
// everything a test needs to tamper with a single step.
type msSession struct {
	g        Group
	kps      []*KeyPair
	ms       *Multisig
	nonces   []Element
	c        *big.Int
	partials []*big.Int
}

const msDomain = "test/multisig"

func newMSSession(t testing.TB, g Group, n int, msg []byte) *msSession {
	t.Helper()
	s := &msSession{g: g}
	keys := make([]Element, n)
	for i := range keys {
		kp, err := GenerateKeyPair(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		s.kps = append(s.kps, kp)
		keys[i] = kp.Public
	}
	s.ms = NewMultisig(g, keys)
	ks := make([]*big.Int, n)
	for i := range ks {
		k, err := g.RandomScalar(nil)
		if err != nil {
			t.Fatal(err)
		}
		ks[i] = k
		s.nonces = append(s.nonces, g.BaseMult(k))
	}
	s.c = s.ms.Challenge(msDomain, s.nonces, msg)
	for i, kp := range s.kps {
		s.partials = append(s.partials, s.ms.Respond(i, kp.Private, ks[i], s.c))
	}
	return s
}

// badPartials returns the indices whose partial response fails.
func (s *msSession) badPartials(partials []*big.Int) []int {
	var bad []int
	for i, z := range partials {
		if s.ms.VerifyPartial(i, s.nonces[i], s.c, z) != nil {
			bad = append(bad, i)
		}
	}
	return bad
}

func TestMultisigHonestAggregateVerifies(t *testing.T) {
	msg := []byte("certified cleartext digest")
	for name, g := range testGroups() {
		for _, n := range []int{1, 2, 3, 5} {
			s := newMSSession(t, g, n, msg)
			if bad := s.badPartials(s.partials); len(bad) != 0 {
				t.Errorf("%s n=%d: honest partials %v rejected", name, n, bad)
			}
			sig := s.ms.Combine(s.c, s.partials)
			if err := Verify(g, s.ms.Key(), msDomain, msg, sig); err != nil {
				t.Errorf("%s n=%d: aggregate rejected by plain Verify: %v", name, n, err)
			}
			if err := Verify(g, s.ms.Key(), msDomain, []byte("another message"), sig); err == nil {
				t.Errorf("%s n=%d: aggregate verifies over a different message", name, n)
			}
			if err := Verify(g, s.ms.Key(), "test/other-domain", msg, sig); err == nil {
				t.Errorf("%s n=%d: aggregate verifies under a different domain", name, n)
			}
			// The encoded form is an ordinary signature.
			dec, err := DecodeSignature(g, EncodeSignature(g, sig))
			if err != nil || Verify(g, s.ms.Key(), msDomain, msg, dec) != nil {
				t.Errorf("%s n=%d: aggregate does not survive the signature codec", name, n)
			}
		}
	}
}

func TestMultisigCorruptPartialIdentified(t *testing.T) {
	msg := []byte("digest")
	g := P256()
	s := newMSSession(t, g, 4, msg)
	q := g.Order()
	corruptions := map[string]func(z *big.Int) *big.Int{
		"plus-one":     func(z *big.Int) *big.Int { return new(big.Int).Mod(new(big.Int).Add(z, big.NewInt(1)), q) },
		"zero":         func(*big.Int) *big.Int { return new(big.Int) },
		"out-of-range": func(z *big.Int) *big.Int { return new(big.Int).Add(z, q) },
		"negative":     func(z *big.Int) *big.Int { return new(big.Int).Neg(z) },
		"missing":      func(*big.Int) *big.Int { return nil },
	}
	for name, corrupt := range corruptions {
		for i := range s.partials {
			partials := append([]*big.Int(nil), s.partials...)
			partials[i] = corrupt(partials[i])
			bad := s.badPartials(partials)
			if len(bad) != 1 || bad[0] != i {
				t.Errorf("%s at signer %d: rejected partials %v, want exactly [%d]", name, i, bad, i)
			}
			// (A non-canonical encoding of the right response is refused
			// above but still sums to the right aggregate.)
			if partials[i] == nil || new(big.Int).Mod(partials[i], q).Cmp(s.partials[i]) == 0 {
				continue
			}
			if err := Verify(g, s.ms.Key(), msDomain, msg, s.ms.Combine(s.c, partials)); err == nil {
				t.Errorf("%s at signer %d: aggregate over a corrupt partial verifies", name, i)
			}
		}
	}
	// A response valid for one signer is not valid for another.
	if err := s.ms.VerifyPartial(1, s.nonces[1], s.c, s.partials[0]); err == nil {
		t.Error("signer 0's response accepted as signer 1's")
	}
	if err := s.ms.VerifyPartial(0, s.nonces[1], s.c, s.partials[0]); err == nil {
		t.Error("response accepted against another signer's nonce")
	}
}

// The aggregate key only verifies a signature every signer answered.
func TestMultisigNeedsEverySigner(t *testing.T) {
	msg := []byte("digest")
	g := P256()
	s := newMSSession(t, g, 3, msg)
	for skip := range s.partials {
		var rest []*big.Int
		for i, z := range s.partials {
			if i != skip {
				rest = append(rest, z)
			}
		}
		if err := Verify(g, s.ms.Key(), msDomain, msg, s.ms.Combine(s.c, rest)); err == nil {
			t.Errorf("aggregate without signer %d verifies under the full aggregate key", skip)
		}
	}
}

// A last signer who registers X' − ΣXⱼ owns the naive sum of keys; the
// coefficients deny it the aggregate.
func TestMultisigRogueKey(t *testing.T) {
	msg := []byte("digest")
	for name, g := range testGroups() {
		var honest []Element
		sum := g.Identity()
		for i := 0; i < 2; i++ {
			kp, _ := GenerateKeyPair(g, nil)
			honest = append(honest, kp.Public)
			sum = g.Add(sum, kp.Public)
		}
		attacker, _ := GenerateKeyPair(g, nil)
		rogue := g.Add(attacker.Public, g.Neg(sum))
		keys := append(honest, rogue)

		sig, err := attacker.Sign(msDomain, msg, nil)
		if err != nil {
			t.Fatal(err)
		}
		// The attack is real against unweighted aggregation…
		if err := Verify(g, AggregateKeys(g, keys), msDomain, msg, sig); err != nil {
			t.Fatalf("%s: rogue key does not control the naive aggregate: %v", name, err)
		}
		// …and fails against the coefficient-weighted one.
		ms := NewMultisig(g, keys)
		if g.Equal(ms.Key(), attacker.Public) {
			t.Fatalf("%s: rogue key controls the aggregate key", name)
		}
		if err := Verify(g, ms.Key(), msDomain, msg, sig); err == nil {
			t.Errorf("%s: lone rogue signature verifies under the aggregate key", name)
		}
		// Nor does the rogue signer's lone partial stand in for everyone's.
		k, _ := g.RandomScalar(nil)
		c := ms.Challenge(msDomain, []Element{g.BaseMult(k)}, msg)
		lone := ms.Combine(c, []*big.Int{ms.Respond(2, attacker.Private, k, c)})
		if err := Verify(g, ms.Key(), msDomain, msg, lone); err == nil {
			t.Errorf("%s: lone partial response verifies under the aggregate key", name)
		}
	}
}

// Coefficients are a function of the whole ordered key list.
func TestMultisigCoefficientsBoundToKeyList(t *testing.T) {
	g := P256()
	var keys []Element
	for i := 0; i < 3; i++ {
		kp, _ := GenerateKeyPair(g, nil)
		keys = append(keys, kp.Public)
	}
	a, again := NewMultisig(g, keys), NewMultisig(g, keys)
	if !g.Equal(a.Key(), again.Key()) {
		t.Fatal("aggregation is not deterministic")
	}
	swapped := NewMultisig(g, []Element{keys[1], keys[0], keys[2]})
	if g.Equal(a.Key(), swapped.Key()) {
		t.Error("aggregate key ignores signer order")
	}
	if swapped.coefs[1].Cmp(a.coefs[0]) == 0 {
		t.Error("a key's coefficient ignores its list's order")
	}
	other, _ := GenerateKeyPair(g, nil)
	replaced := NewMultisig(g, []Element{keys[0], keys[1], other.Public})
	for i := 0; i < 2; i++ {
		if replaced.coefs[i].Cmp(a.coefs[i]) == 0 {
			t.Errorf("signer %d's coefficient survives replacing signer 2's key", i)
		}
	}
	sub := NewMultisig(g, keys[:2])
	if sub.coefs[0].Cmp(a.coefs[0]) == 0 {
		t.Error("coefficient survives dropping a signer")
	}
}

func TestMultisigQuick(t *testing.T) {
	g := P256()
	honest := func(msg []byte, n uint8) bool {
		s := newMSSession(t, g, 1+int(n%4), msg)
		return len(s.badPartials(s.partials)) == 0 &&
			Verify(g, s.ms.Key(), msDomain, msg, s.ms.Combine(s.c, s.partials)) == nil
	}
	if err := quick.Check(honest, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
	tampered := func(msg []byte, n, who uint8, delta int64) bool {
		s := newMSSession(t, g, 1+int(n%4), msg)
		i := int(who) % len(s.partials)
		d := new(big.Int).Mod(big.NewInt(delta), g.Order())
		if d.Sign() == 0 {
			d.SetInt64(1)
		}
		s.partials[i] = d.Mod(d.Add(d, s.partials[i]), g.Order())
		bad := s.badPartials(s.partials)
		return len(bad) == 1 && bad[0] == i &&
			Verify(g, s.ms.Key(), msDomain, msg, s.ms.Combine(s.c, s.partials)) != nil
	}
	if err := quick.Check(tampered, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

func TestScalarCodec(t *testing.T) {
	for name, g := range testGroups() {
		k, _ := g.RandomScalar(nil)
		enc := EncodeScalar(g, k)
		if len(enc)*2 != SignatureLen(g) {
			t.Errorf("%s: scalar encodes to %d bytes, want %d", name, len(enc), SignatureLen(g)/2)
		}
		got, err := DecodeScalar(g, enc)
		if err != nil || got.Cmp(k) != 0 {
			t.Errorf("%s: scalar round trip: %v", name, err)
		}
		if _, err := DecodeScalar(g, enc[1:]); err == nil {
			t.Errorf("%s: short scalar accepted", name)
		}
		if _, err := DecodeScalar(g, append(enc, 0)); err == nil {
			t.Errorf("%s: long scalar accepted", name)
		}
	}
}
