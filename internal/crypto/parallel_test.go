package crypto

import (
	"math/big"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestIsResidueMatchesEulerCriterion is the differential test behind
// the Jacobi-symbol membership check: it must agree with v^q mod p == 1
// on random values and on every edge a decoder or an embedder can hand
// it.
func TestIsResidueMatchesEulerCriterion(t *testing.T) {
	for _, g := range []*ModPGroup{ModP512Test(), ModP2048()} {
		euler := func(v *big.Int) bool {
			return new(big.Int).Exp(v, g.q, g.p).Cmp(big.NewInt(1)) == 0
		}
		check := func(name string, v *big.Int) {
			t.Helper()
			if got, want := g.isResidue(v), euler(v); got != want {
				t.Errorf("%s %s: Jacobi says %v, Euler's criterion %v", g.name, name, got, want)
			}
		}
		pm1 := new(big.Int).Sub(g.p, big.NewInt(1))
		check("0", new(big.Int))
		check("1", big.NewInt(1))
		check("4", big.NewInt(4))
		check("p-1 (a non-residue: p ≡ 3 mod 4)", pm1)
		check("p", g.p)
		check("p+4", new(big.Int).Add(g.p, big.NewInt(4)))
		if g.isResidue(pm1) || !g.isResidue(big.NewInt(4)) {
			t.Errorf("%s: known residue or non-residue misclassified", g.name)
		}
		residues := 0
		rounds := 200
		if g.p.BitLen() > 1024 {
			rounds = 20 // the reference exponentiation is the slow side
		}
		for i := 0; i < rounds; i++ {
			k, _ := randScalar(nil, g.p)
			check("random", k)
			if g.isResidue(k) {
				residues++
			}
		}
		if residues == 0 || residues == rounds {
			t.Errorf("%s: %d of %d random values are residues", g.name, residues, rounds)
		}
	}
}

func TestHashToElement(t *testing.T) {
	for name, g := range testGroups() {
		t.Run(name, func(t *testing.T) {
			seen := map[string]bool{}
			for i := 0; i < 40; i++ {
				seed := HashUint64(uint64(i))
				e := g.HashToElement(seed)
				if !g.Equal(e, g.HashToElement(seed)) {
					t.Fatal("not deterministic")
				}
				if g.IsIdentity(e) {
					t.Fatal("hashed to the identity")
				}
				enc := g.Encode(e)
				if dec, err := g.Decode(enc); err != nil || !g.Equal(dec, e) {
					t.Fatalf("result is not a canonical group member: %v", err)
				}
				if !g.IsIdentity(g.ScalarMult(e, g.Order())) {
					t.Fatal("result is outside the order-q subgroup")
				}
				if seen[string(enc)] {
					t.Fatal("two seeds hashed to one element")
				}
				seen[string(enc)] = true
			}
		})
	}
}

func TestForChunksCoversRangeOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 7, 64} {
			hits := make([]atomic.Int32, n)
			var calls atomic.Int32
			ForChunks(n, func(lo, hi int) {
				calls.Add(1)
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if hits[i].Load() != 1 {
					t.Fatalf("GOMAXPROCS=%d n=%d: index %d visited %d times", procs, n, i, hits[i].Load())
				}
			}
			if want := int32(min(procs, n)); calls.Load() != want {
				t.Errorf("GOMAXPROCS=%d n=%d: %d chunks, want %d", procs, n, calls.Load(), want)
			}
		}
	}
}

func TestMultiScalarMultAndBaseMultAdd(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	for name, g := range testGroups() {
		t.Run(name, func(t *testing.T) {
			if !g.IsIdentity(MultiScalarMult(g, nil, nil)) {
				t.Error("empty sum is not the identity")
			}
			const n = 9
			elems, ks := make([]Element, n), make([]*big.Int, n)
			want := g.Identity()
			for i := range elems {
				elems[i], _ = g.RandomElement(nil)
				ks[i], _ = g.RandomScalar(nil)
				want = g.Add(want, g.ScalarMult(elems[i], ks[i]))
			}
			if got := MultiScalarMult(g, elems, ks); !g.Equal(got, want) {
				t.Error("parallel sum differs from the serial one")
			}
			if got, want := BaseMultAdd(g, ks[0], elems[1], ks[1]), g.Add(g.BaseMult(ks[0]), g.ScalarMult(elems[1], ks[1])); !g.Equal(got, want) {
				t.Error("BaseMultAdd differs from k·G + l·a")
			}
		})
	}
}

func TestBatchWeightsAreShort(t *testing.T) {
	for _, k := range ChallengeVector("test", []byte("seed"), 50) {
		if k.BitLen() > 128 {
			t.Fatalf("weight of %d bits", k.BitLen())
		}
	}
	a, b := ChallengeVector("test", []byte("seed"), 2), ChallengeVector("test", []byte("seed2"), 2)
	if a[0].Cmp(a[1]) == 0 || a[0].Cmp(b[0]) == 0 {
		t.Error("weights repeat across index or seed")
	}
}
