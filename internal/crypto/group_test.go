package crypto

import (
	"bytes"
	"math/big"
	"testing"
	"testing/quick"
)

// testGroups returns the groups every generic test runs against.
func testGroups() map[string]Group {
	return map[string]Group{
		"P-256":    P256(),
		"modp-512": ModP512Test(),
	}
}

func TestGroupAxioms(t *testing.T) {
	for name, g := range testGroups() {
		t.Run(name, func(t *testing.T) {
			a, err := g.RandomElement(nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := g.RandomElement(nil)
			if err != nil {
				t.Fatal(err)
			}
			// Commutativity.
			if !g.Equal(g.Add(a, b), g.Add(b, a)) {
				t.Error("Add not commutative")
			}
			// Identity.
			if !g.Equal(g.Add(a, g.Identity()), a) {
				t.Error("identity not neutral")
			}
			// Inverse.
			if !g.IsIdentity(g.Add(a, g.Neg(a))) {
				t.Error("a + (-a) != identity")
			}
			// Associativity.
			c, _ := g.RandomElement(nil)
			if !g.Equal(g.Add(g.Add(a, b), c), g.Add(a, g.Add(b, c))) {
				t.Error("Add not associative")
			}
			// Order: q*g == identity.
			if !g.IsIdentity(g.BaseMult(g.Order())) {
				t.Error("order*G != identity")
			}
		})
	}
}

func TestScalarMultDistributes(t *testing.T) {
	for name, g := range testGroups() {
		t.Run(name, func(t *testing.T) {
			k1, _ := g.RandomScalar(nil)
			k2, _ := g.RandomScalar(nil)
			sum := new(big.Int).Add(k1, k2)
			lhs := g.BaseMult(sum)
			rhs := g.Add(g.BaseMult(k1), g.BaseMult(k2))
			if !g.Equal(lhs, rhs) {
				t.Error("(k1+k2)G != k1 G + k2 G")
			}
			a, _ := g.RandomElement(nil)
			prod := new(big.Int).Mul(k1, k2)
			if !g.Equal(g.ScalarMult(g.ScalarMult(a, k1), k2), g.ScalarMult(a, prod)) {
				t.Error("k2(k1 A) != (k1 k2) A")
			}
		})
	}
}

func TestBaseMultMatchesScalarMult(t *testing.T) {
	for name, g := range testGroups() {
		t.Run(name, func(t *testing.T) {
			k, _ := g.RandomScalar(nil)
			if !g.Equal(g.BaseMult(k), g.ScalarMult(g.Generator(), k)) {
				t.Error("BaseMult disagrees with ScalarMult(Generator)")
			}
		})
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for name, g := range testGroups() {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 8; i++ {
				a, _ := g.RandomElement(nil)
				enc := g.Encode(a)
				if len(enc) != g.ElementLen() {
					t.Fatalf("encoding length %d, want %d", len(enc), g.ElementLen())
				}
				dec, err := g.Decode(enc)
				if err != nil {
					t.Fatal(err)
				}
				if !g.Equal(a, dec) {
					t.Fatal("decode(encode(a)) != a")
				}
			}
		})
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for name, g := range testGroups() {
		t.Run(name, func(t *testing.T) {
			if _, err := g.Decode(nil); err == nil {
				t.Error("Decode(nil) accepted")
			}
			junk := bytes.Repeat([]byte{0xFF}, g.ElementLen())
			if _, err := g.Decode(junk); err == nil {
				t.Error("Decode(0xFF...) accepted")
			}
			if _, err := g.Decode(make([]byte, g.ElementLen()-1)); err == nil {
				t.Error("short encoding accepted")
			}
		})
	}
}

func TestECIdentityEncodeDecode(t *testing.T) {
	g := P256()
	id := g.Identity()
	enc := g.Encode(id)
	dec, err := g.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsIdentity(dec) {
		t.Error("identity round-trip failed")
	}
}

func TestModPDecodeRejectsNonResidue(t *testing.T) {
	g := ModP512Test()
	// Find a non-residue: -1 is a non-residue mod a safe prime p ≡ 3 (mod 4).
	nonres := new(big.Int).Sub(g.p, big.NewInt(1))
	buf := make([]byte, g.ElementLen())
	nonres.FillBytes(buf)
	if _, err := g.Decode(buf); err == nil {
		t.Error("Decode accepted a quadratic non-residue")
	}
}

func TestEmbedExtractRoundTrip(t *testing.T) {
	for name, g := range testGroups() {
		t.Run(name, func(t *testing.T) {
			msgs := [][]byte{
				nil,
				{},
				[]byte("x"),
				[]byte("hello dissent"),
				bytes.Repeat([]byte{0xAB}, g.EmbedLimit()),
			}
			for _, m := range msgs {
				e, err := g.Embed(m, nil)
				if err != nil {
					t.Fatalf("Embed(%d bytes): %v", len(m), err)
				}
				got, err := g.Extract(e)
				if err != nil {
					t.Fatalf("Extract: %v", err)
				}
				if !bytes.Equal(got, m) && !(len(got) == 0 && len(m) == 0) {
					t.Fatalf("Extract = %q, want %q", got, m)
				}
			}
		})
	}
}

func TestEmbedTooLong(t *testing.T) {
	for name, g := range testGroups() {
		t.Run(name, func(t *testing.T) {
			long := make([]byte, g.EmbedLimit()+1)
			if _, err := g.Embed(long, nil); err != ErrEmbedTooLong {
				t.Errorf("Embed(too long) = %v, want ErrEmbedTooLong", err)
			}
		})
	}
}

func TestEmbedProperty(t *testing.T) {
	g := P256()
	f := func(data []byte) bool {
		if len(data) > g.EmbedLimit() {
			data = data[:g.EmbedLimit()]
		}
		e, err := g.Embed(data, nil)
		if err != nil {
			return false
		}
		got, err := g.Extract(e)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 64}); err != nil {
		t.Error(err)
	}
}

func TestEmbeddedElementSurvivesEncode(t *testing.T) {
	for name, g := range testGroups() {
		t.Run(name, func(t *testing.T) {
			m := []byte("wire round-trip msg")
			e, err := g.Embed(m, nil)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := g.Decode(g.Encode(e))
			if err != nil {
				t.Fatal(err)
			}
			got, err := g.Extract(dec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, m) {
				t.Error("embedded message corrupted by encode/decode")
			}
		})
	}
}

func TestSharedSecretSymmetry(t *testing.T) {
	for name, g := range testGroups() {
		t.Run(name, func(t *testing.T) {
			a, err := GenerateKeyPair(g, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := GenerateKeyPair(g, nil)
			if err != nil {
				t.Fatal(err)
			}
			sab, err := a.SharedSecret(b.Public)
			if err != nil {
				t.Fatal(err)
			}
			sba, err := b.SharedSecret(a.Public)
			if err != nil {
				t.Fatal(err)
			}
			if !g.Equal(sab, sba) {
				t.Error("DH shared secrets disagree")
			}
			seedAB := SecretSeed(g, sab, a.Public, b.Public)
			seedBA := SecretSeed(g, sba, b.Public, a.Public)
			if !bytes.Equal(seedAB, seedBA) {
				t.Error("secret seeds disagree despite key ordering")
			}
		})
	}
}

func TestSharedSecretRejectsIdentity(t *testing.T) {
	g := P256()
	a, _ := GenerateKeyPair(g, nil)
	if _, err := a.SharedSecret(g.Identity()); err == nil {
		t.Error("SharedSecret accepted identity peer key")
	}
}

func TestPublicOnlyCannotSign(t *testing.T) {
	g := P256()
	a, _ := GenerateKeyPair(g, nil)
	pub := PublicOnly(g, a.Public)
	if _, err := pub.Sign("d", []byte("m"), nil); err == nil {
		t.Error("public-only keypair signed")
	}
	if _, err := pub.SharedSecret(a.Public); err == nil {
		t.Error("public-only keypair produced DH secret")
	}
}

func TestRandomScalarNonZeroInRange(t *testing.T) {
	for name, g := range testGroups() {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 32; i++ {
				k, err := g.RandomScalar(nil)
				if err != nil {
					t.Fatal(err)
				}
				if k.Sign() <= 0 || k.Cmp(g.Order()) >= 0 {
					t.Fatalf("scalar out of range: %v", k)
				}
			}
		})
	}
}

// TestBaseMultSubMatchesGenericFormula is the differential test behind
// the combined multiplication: on P-256, z·G − c·X computed in one call
// must equal the three-operation formula every other group uses, on
// random inputs and on the edges a verifier can be handed.
func TestBaseMultSubMatchesGenericFormula(t *testing.T) {
	g := P256()
	generic := func(z *big.Int, x Element, c *big.Int) Element {
		return g.Add(g.BaseMult(z), g.Neg(g.ScalarMult(x, c)))
	}
	check := func(name string, z *big.Int, x Element, c *big.Int) {
		t.Helper()
		if got, want := baseMultSub(g, z, x, c), generic(z, x, c); !g.Equal(got, want) {
			t.Errorf("%s: combined %v, generic %v", name, got, want)
		}
	}
	for i := 0; i < 50; i++ {
		z, _ := g.RandomScalar(nil)
		c, _ := g.RandomScalar(nil)
		x, _ := g.RandomElement(nil)
		check("random", z, x, c)
	}
	z, _ := g.RandomScalar(nil)
	c, _ := g.RandomScalar(nil)
	xk, _ := g.RandomScalar(nil)
	x := g.BaseMult(xk)
	zero := new(big.Int)
	qm1 := new(big.Int).Sub(g.Order(), big.NewInt(1))
	check("c = 0", z, x, zero)
	check("z = 0", zero, x, c)
	check("c = z = 0", zero, x, zero)
	check("c = q-1", z, x, qm1)
	check("pub = G", z, g.Generator(), c)
	check("pub = G, c = z", z, g.Generator(), z) // r = identity
	check("pub = identity", z, g.Identity(), c)
	// r = identity with an arbitrary key: z = c·x.
	zr := new(big.Int).Mul(c, xk)
	zr.Mod(zr, g.Order())
	check("r = identity", zr, x, c)
	if !g.IsIdentity(baseMultSub(g, zr, x, c)) {
		t.Error("z = c·x did not yield the identity")
	}
}

func BenchmarkVerify(b *testing.B) {
	g := P256()
	kp, _ := GenerateKeyPair(g, nil)
	msg := Hash("bench", []byte("digest"))
	sig, _ := kp.Sign("bench", msg, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Verify(g, kp.Public, "bench", msg, sig); err != nil {
			b.Fatal(err)
		}
	}
}
