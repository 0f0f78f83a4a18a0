package shuffle

import (
	"bytes"
	"errors"
	"io"
	"math/big"
	"runtime"
	"sort"
	"testing"

	"dissent/internal/crypto"
)

// isPerm reports whether p is a permutation of [0,len(p)).
func isPerm(p []int) bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

func TestPermutationUniform(t *testing.T) {
	for _, n := range []int{1, 2, 5, 17} {
		p, err := Permutation(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !isPerm(p) {
			t.Fatalf("Permutation(%d) = %v not a permutation", n, p)
		}
	}
	// Statistical smoke test: over many draws of n=3, each of the 6
	// orders should appear.
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		p, _ := Permutation(3, nil)
		seen[string([]byte{byte(p[0]), byte(p[1]), byte(p[2])})] = true
	}
	if len(seen) != 6 {
		t.Errorf("saw %d/6 permutations of 3 elements in 200 draws", len(seen))
	}
}

func TestInvertPerm(t *testing.T) {
	p := []int{2, 0, 3, 1}
	inv := invertPerm(p)
	for i := range p {
		if inv[p[i]] != i {
			t.Fatalf("invertPerm wrong at %d", i)
		}
	}
}

func TestIsPerm(t *testing.T) {
	cases := []struct {
		p  []int
		ok bool
	}{
		{[]int{0}, true},
		{[]int{1, 0, 2}, true},
		{[]int{0, 0, 2}, false},
		{[]int{0, 3, 1}, false},
		{[]int{-1, 0, 1}, false},
		{nil, true},
	}
	for _, c := range cases {
		if got := isPerm(c.p); got != c.ok {
			t.Errorf("isPerm(%v) = %v, want %v", c.p, got, c.ok)
		}
	}
}

// seeded returns a deterministic randomness source for one try.
func seeded(label string, try int) io.Reader {
	return crypto.NewAESPRNG(crypto.Hash("shuffle-test", []byte(label), crypto.HashUint64(uint64(try))))
}

// randomInputs builds n width-w shuffle inputs of random elements under
// one key, returning the plaintexts for later comparison.
func randomInputs(g crypto.Group, key crypto.Element, n, w int, r io.Reader) ([]Vec, [][]crypto.Element, error) {
	in := make([]Vec, n)
	plain := make([][]crypto.Element, n)
	for i := range in {
		in[i] = make(Vec, w)
		plain[i] = make([]crypto.Element, w)
		for c := 0; c < w; c++ {
			m, err := g.RandomElement(r)
			if err != nil {
				return nil, nil, err
			}
			plain[i][c] = m
			ct, _, err := crypto.Encrypt(g, key, m, r)
			if err != nil {
				return nil, nil, err
			}
			in[i][c] = ct
		}
	}
	return in, plain, nil
}

func makeInputs(t testing.TB, g crypto.Group, key crypto.Element, n, w int, r io.Reader) ([]Vec, [][]crypto.Element) {
	t.Helper()
	in, plain, err := randomInputs(g, key, n, w, r)
	if err != nil {
		t.Fatal(err)
	}
	return in, plain
}

// proofCases are the (group, width) pairs the forgery and mutation
// tests cover, each at n ∈ {1, 2, 17}.
var proofCases = []struct {
	g crypto.Group
	w int
}{
	{crypto.P256(), 1},
	{crypto.ModP512Test(), 3},
}

func TestProveVerify(t *testing.T) {
	for _, pc := range proofCases {
		kp, _ := crypto.GenerateKeyPair(pc.g, nil)
		for _, shape := range []struct{ n, w int }{{1, 1}, {2, pc.w}, {4, 1}, {5, 3}, {17, pc.w}} {
			in, _ := makeInputs(t, pc.g, kp.Public, shape.n, shape.w, nil)
			out, perm, proof, err := Prove(pc.g, kp.Public, in, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !isPerm(perm) {
				t.Fatal("Prove returned a non-permutation")
			}
			if err := Verify(pc.g, kp.Public, in, out, proof); err != nil {
				t.Errorf("%s n=%d w=%d: valid proof rejected: %v", pc.g.Name(), shape.n, shape.w, err)
			}
		}
	}
}

// cloneVecs copies a list so a forger can edit one entry.
func cloneVecs(vs []Vec) []Vec {
	out := make([]Vec, len(vs))
	for i, v := range vs {
		out[i] = append(Vec(nil), v...)
	}
	return out
}

// forgeries are cheating provers. Each gets an honest witness and the
// honest output list and returns the statement and proof it presents; a
// forger that edits the output re-runs the whole proof over the edited
// list, so every Fiat–Shamir hash is consistent with what it presents
// and only the algebra can catch it. minN is the smallest list the
// cheat exists for.
var forgeries = []struct {
	name string
	minN int
	make func(g crypto.Group, y crypto.Element, in, out []Vec, wit *witness, r io.Reader) (fIn, fOut []Vec, proof *Proof)
}{
	{"duplicate one input and drop another", 2, func(g crypto.Group, y crypto.Element, in, out []Vec, wit *witness, r io.Reader) ([]Vec, []Vec, *Proof) {
		// out[1] becomes a second re-encryption of the input behind out[0].
		forged := cloneVecs(out)
		for k, ct := range in[wit.perm[0]] {
			forged[1][k] = crypto.ReencryptWith(g, y, ct, wit.rho[1][k])
		}
		return in, forged, wit.prove(g, y, in, forged)
	}},
	{"swap in a ciphertext from a previous session", 1, func(g crypto.Group, y crypto.Element, in, out []Vec, wit *witness, r io.Reader) ([]Vec, []Vec, *Proof) {
		// An input list of an earlier run under the same key, honestly
		// re-encrypted: a valid ciphertext, just not one of this list's.
		old, _, err := randomInputs(g, y, 1, len(in[0]), r)
		if err != nil {
			panic(err)
		}
		forged := cloneVecs(out)
		for k, ct := range old[0] {
			forged[0][k] = crypto.ReencryptWith(g, y, ct, wit.rho[0][k])
		}
		return in, forged, wit.prove(g, y, in, forged)
	}},
	{"re-encrypt under the wrong key", 1, func(g crypto.Group, y crypto.Element, in, out []Vec, wit *witness, r io.Reader) ([]Vec, []Vec, *Proof) {
		other, _ := crypto.GenerateKeyPair(g, r)
		forged := shuffleOnce(g, other.Public, in, wit.perm, wit.rho)
		return in, forged, wit.prove(g, y, in, forged)
	}},
	{"replay a valid proof against a different input list", 1, func(g crypto.Group, y crypto.Element, in, out []Vec, wit *witness, r io.Reader) ([]Vec, []Vec, *Proof) {
		// Same plaintext positions, fresh encryptions: the list another
		// session would hold.
		other := cloneVecs(in)
		k, _ := g.RandomScalar(r)
		other[0][0] = crypto.ReencryptWith(g, y, in[0][0], k)
		return other, out, wit.prove(g, y, in, out)
	}},
}

// TestForgedShufflesAlwaysRejected: every forgery is refused with
// ErrBadProof on each of 200 seeded tries — certainty, where a
// cut-and-choose proof offered 1 − 2⁻ᵏ. Most tries run at n = 1 or 2;
// every tenth at n = 17.
func TestForgedShufflesAlwaysRejected(t *testing.T) {
	const tries = 200
	for _, pc := range proofCases {
		for _, f := range forgeries {
			t.Run(pc.g.Name()+"/"+f.name, func(t *testing.T) {
				for try := 0; try < tries; try++ {
					n := 1 + try%2
					if try%10 == 0 {
						n = 17
					}
					if n < f.minN {
						n = f.minN
					}
					r := seeded(pc.g.Name()+f.name, try)
					kp, _ := crypto.GenerateKeyPair(pc.g, r)
					in, _ := makeInputs(t, pc.g, kp.Public, n, pc.w, r)
					wit, err := drawWitness(pc.g, n, pc.w, r)
					if err != nil {
						t.Fatal(err)
					}
					out := shuffleOnce(pc.g, kp.Public, in, wit.perm, wit.rho)
					if try == 0 {
						if err := Verify(pc.g, kp.Public, in, out, wit.prove(pc.g, kp.Public, in, out)); err != nil {
							t.Fatalf("honest proof from the same witness rejected: %v", err)
						}
					}
					fIn, fOut, proof := f.make(pc.g, kp.Public, in, out, wit, r)
					if err := Verify(pc.g, kp.Public, fIn, fOut, proof); !errors.Is(err, ErrBadProof) {
						t.Fatalf("try %d (n=%d): got %v, want ErrBadProof", try, n, err)
					}
				}
			})
		}
	}
}

// TestProofMutationsRejected changes every field of an honest proof,
// one at a time — each element to a different group member, each scalar
// to a different in-range value — and expects ErrBadProof for each.
func TestProofMutationsRejected(t *testing.T) {
	for _, pc := range proofCases {
		for _, n := range []int{1, 2, 17} {
			g, q := pc.g, pc.g.Order()
			kp, _ := crypto.GenerateKeyPair(g, nil)
			in, _ := makeInputs(t, g, kp.Public, n, pc.w, nil)
			shuffled, _, proof, err := Prove(g, kp.Public, in, nil)
			if err != nil {
				t.Fatal(err)
			}
			elems, scalars := proof.slots()
			if wantE, wantS := 3*n+3+2*pc.w, 2*n+3+pc.w; len(elems) != wantE || len(scalars) != wantS {
				t.Fatalf("walk covers %d elements and %d scalars, want %d and %d", len(elems), len(scalars), wantE, wantS)
			}
			if err := Verify(g, kp.Public, in, shuffled, proof); err != nil {
				t.Fatalf("honest proof rejected: %v", err)
			}
			for i, e := range elems {
				orig := *e
				*e = g.Add(orig, g.Generator())
				if err := Verify(g, kp.Public, in, shuffled, proof); !errors.Is(err, ErrBadProof) {
					t.Errorf("%s n=%d: element field %d mutated: got %v, want ErrBadProof", g.Name(), n, i, err)
				}
				*e = orig
			}
			for i, s := range scalars {
				orig := *s
				next := new(big.Int).Add(orig, big.NewInt(1))
				*s = next.Mod(next, q)
				if err := Verify(g, kp.Public, in, shuffled, proof); !errors.Is(err, ErrBadProof) {
					t.Errorf("%s n=%d: scalar field %d mutated: got %v, want ErrBadProof", g.Name(), n, i, err)
				}
				*s = orig
			}
			if err := Verify(g, kp.Public, in, shuffled, proof); err != nil {
				t.Fatalf("proof no longer verifies after restoring every field: %v", err)
			}
		}
	}
}

func TestVerifyRejectsTamperedOutput(t *testing.T) {
	g := crypto.P256()
	kp, _ := crypto.GenerateKeyPair(g, nil)
	in, _ := makeInputs(t, g, kp.Public, 4, 1, nil)
	out, _, proof, err := Prove(g, kp.Public, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	evil, _ := g.RandomElement(nil)
	ct, _, _ := crypto.Encrypt(g, kp.Public, evil, nil)
	out[2][0] = ct
	if err := Verify(g, kp.Public, in, out, proof); !errors.Is(err, ErrBadProof) {
		t.Errorf("tampered output: got %v, want ErrBadProof", err)
	}
}

func TestVerifyRejectsShapeMismatch(t *testing.T) {
	g := crypto.P256()
	kp, _ := crypto.GenerateKeyPair(g, nil)
	in, _ := makeInputs(t, g, kp.Public, 3, 2, nil)
	out, _, proof, _ := Prove(g, kp.Public, in, nil)

	if err := Verify(g, kp.Public, in[:2], out, proof); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := Verify(g, kp.Public, in, out, nil); err == nil {
		t.Error("nil proof accepted")
	}
	narrow := cloneVecs(out)
	narrow[1] = narrow[1][:1]
	if err := Verify(g, kp.Public, in, narrow, proof); err == nil {
		t.Error("ragged output list accepted")
	}
	for name, cut := range map[string]func(p *Proof){
		"C":      func(p *Proof) { p.C = p.C[:2] },
		"Chain":  func(p *Proof) { p.Chain = p.Chain[:2] },
		"THat":   func(p *Proof) { p.THat = append(p.THat, p.THat[0]) },
		"T4":     func(p *Proof) { p.T4 = p.T4[:1] },
		"S4":     func(p *Proof) { p.S4 = nil },
		"SHat":   func(p *Proof) { p.SHat = p.SHat[:2] },
		"SPrime": func(p *Proof) { p.SPrime = p.SPrime[:2] },
		"T1":     func(p *Proof) { p.T1 = nil },
		"S2":     func(p *Proof) { p.S2 = nil },
	} {
		bad := *proof
		cut(&bad)
		if err := Verify(g, kp.Public, in, out, &bad); !errors.Is(err, ErrBadProof) {
			t.Errorf("proof with wrong %s: got %v, want ErrBadProof", name, err)
		}
	}
}

// TestVerifyRejectsNonPermutationCommitment: a prover that commits to a
// matrix with a repeated row (two outputs claiming the same input) and
// otherwise follows the protocol.
func TestVerifyRejectsNonPermutationCommitment(t *testing.T) {
	g := crypto.P256()
	kp, _ := crypto.GenerateKeyPair(g, nil)
	in, _ := makeInputs(t, g, kp.Public, 4, 1, nil)
	wit, err := drawWitness(g, 4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := shuffleOnce(g, kp.Public, in, wit.perm, wit.rho)
	proof := wit.prove(g, kp.Public, in, out)
	// Column perm[1] now carries H_0 like column perm[0] does.
	_, hs := generators(g, 4)
	proof.C[wit.perm[1]] = g.Add(g.BaseMult(wit.rs[wit.perm[1]]), hs[0])
	if err := Verify(g, kp.Public, in, out, proof); !errors.Is(err, ErrBadProof) {
		t.Errorf("non-permutation commitment: got %v, want ErrBadProof", err)
	}
}

func TestStepAndVerifyStep(t *testing.T) {
	g := crypto.P256()
	srv, _ := crypto.GenerateKeyPair(g, nil)
	in, plain := makeInputs(t, g, srv.Public, 4, 2, nil)
	out, err := Step(g, srv, srv.Public, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyStep(g, srv.Public, srv.Public, in, out); err != nil {
		t.Fatalf("valid step rejected: %v", err)
	}
	// Single server: stripped C2 values are the plaintexts, permuted.
	got := encodeSorted(g, flattenPlain(out.Stripped(g)))
	want := encodeSorted(g, plain)
	for i := range got {
		if got[i] != want[i] {
			t.Fatal("stripped plaintexts differ from inputs")
		}
	}
}

func flattenPlain(stripped []Vec) [][]crypto.Element {
	res := make([][]crypto.Element, len(stripped))
	for i, v := range stripped {
		res[i] = make([]crypto.Element, len(v))
		for c, ct := range v {
			res[i][c] = ct.C2
		}
	}
	return res
}

func encodeSorted(g crypto.Group, vs [][]crypto.Element) []string {
	var ss []string
	for _, v := range vs {
		var s string
		for _, e := range v {
			s += string(g.Encode(e))
		}
		ss = append(ss, s)
	}
	sort.Strings(ss)
	return ss
}

func TestVerifyStepRejectsWrongShare(t *testing.T) {
	g := crypto.P256()
	srv, _ := crypto.GenerateKeyPair(g, nil)
	in, _ := makeInputs(t, g, srv.Public, 3, 1, nil)
	out, _ := Step(g, srv, srv.Public, in, nil)

	// A malicious server publishes a corrupted share, which would strip
	// to a plaintext of its choosing; the DLEQ batch proof must fail.
	forged, _ := g.RandomElement(nil)
	out.Shares[1][0] = forged
	if err := VerifyStep(g, srv.Public, srv.Public, in, out); !errors.Is(err, ErrBadShares) {
		t.Errorf("forged decryption share: got %v, want ErrBadShares", err)
	}
	out.Shares = out.Shares[:2]
	if err := VerifyStep(g, srv.Public, srv.Public, in, out); !errors.Is(err, ErrShape) {
		t.Errorf("short share list: got %v, want ErrShape", err)
	}
}

func TestRunMultiServer(t *testing.T) {
	g := crypto.P256()
	const m, n = 3, 5
	servers := make([]*crypto.KeyPair, m)
	pubs := make([]crypto.Element, m)
	for i := range servers {
		servers[i], _ = crypto.GenerateKeyPair(g, nil)
		pubs[i] = servers[i].Public
	}
	plain := make([][]crypto.Element, n)
	in := make([]Vec, n)
	for i := range in {
		e, _ := g.RandomElement(nil)
		plain[i] = []crypto.Element{e}
		v, err := PrepareInput(g, pubs, plain[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		in[i] = v
	}
	outPlain, steps, err := Run(g, servers, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != m {
		t.Fatalf("got %d steps, want %d", len(steps), m)
	}
	got := encodeSorted(g, outPlain)
	want := encodeSorted(g, plain)
	for i := range got {
		if got[i] != want[i] {
			t.Fatal("multi-server shuffle lost or corrupted a message")
		}
	}
}

func TestRunNoServers(t *testing.T) {
	g := crypto.P256()
	if _, _, err := Run(g, nil, nil, nil); err == nil {
		t.Error("Run with no servers succeeded")
	}
}

func TestProveEmptyInput(t *testing.T) {
	g := crypto.P256()
	kp, _ := crypto.GenerateKeyPair(g, nil)
	if _, _, _, err := Prove(g, kp.Public, nil, nil); err == nil {
		t.Error("Prove of empty input succeeded")
	}
}

func TestProofSoundnessStatistical(t *testing.T) {
	// A proof built honestly for (in -> out1) but presented with an
	// unrelated out2: the Fiat–Shamir hashes no longer match the
	// announcements, so acceptance would take a 2⁻¹²⁸ coincidence.
	g := crypto.P256()
	kp, _ := crypto.GenerateKeyPair(g, nil)
	in, _ := makeInputs(t, g, kp.Public, 3, 1, nil)
	_, _, proof, _ := Prove(g, kp.Public, in, nil)
	other, _ := makeInputs(t, g, kp.Public, 3, 1, nil)
	if err := Verify(g, kp.Public, in, other, proof); !errors.Is(err, ErrBadProof) {
		t.Errorf("proof transplanted to unrelated output: got %v, want ErrBadProof", err)
	}
}

func TestProofScalarsInRange(t *testing.T) {
	g := crypto.P256()
	kp, _ := crypto.GenerateKeyPair(g, nil)
	in, _ := makeInputs(t, g, kp.Public, 3, 2, nil)
	out, _, proof, _ := Prove(g, kp.Public, in, nil)
	if !proof.checkShape(3, 2, g.Order()) {
		t.Fatal("honest proof has a scalar outside [0, q) or a wrong length")
	}
	// The verifier refuses an out-of-range response even when it is
	// congruent to the right one.
	proof.S1 = new(big.Int).Add(proof.S1, g.Order())
	if err := Verify(g, kp.Public, in, out, proof); !errors.Is(err, ErrBadProof) {
		t.Errorf("response s_1 + q: got %v, want ErrBadProof", err)
	}
}

func TestChallengeBitsDeterministic(t *testing.T) {
	g := crypto.P256()
	kp, _ := crypto.GenerateKeyPair(g, nil)
	in, _ := makeInputs(t, g, kp.Public, 2, 1, nil)
	out, _, proof, _ := Prove(g, kp.Public, in, nil)
	challenges := func(out []Vec) ([]*big.Int, *big.Int) {
		seed := challengeSeed(g, transcript(g, kp.Public, in, out), proof.C)
		return challengeVector(seed, len(in)), sigmaChallenge(g, seed, proof)
	}
	u1, chi1 := challenges(out)
	u2, chi2 := challenges(out)
	for j := range u1 {
		if u1[j].Cmp(u2[j]) != 0 || u1[j].BitLen() > 128 {
			t.Fatal("challenges not deterministic 128-bit values")
		}
	}
	if chi1.Cmp(chi2) != 0 {
		t.Fatal("χ not deterministic")
	}
	// Both hashes bind the output list: swapping two outputs moves
	// every challenge.
	u3, chi3 := challenges([]Vec{out[1], out[0]})
	if u1[0].Cmp(u3[0]) == 0 || u1[1].Cmp(u3[1]) == 0 || chi1.Cmp(chi3) == 0 {
		t.Error("challenges unchanged after output swap")
	}
}

// TestGenerators: every memoised generator equals its hash-to-group
// definition, is a group member, and none is the identity, the base
// point or a repeat.
func TestGenerators(t *testing.T) {
	for _, pc := range proofCases {
		g := pc.g
		h, hs := generators(g, 20)
		seen := map[string]bool{string(g.Encode(g.Generator())): true, string(g.Encode(g.Identity())): true}
		for i, e := range append([]crypto.Element{h}, hs...) {
			if want := g.HashToElement(crypto.Hash("dissent/shuffle-generator", crypto.HashUint64(uint64(i)))); !g.Equal(e, want) {
				t.Fatalf("%s: generator %d differs from its definition", g.Name(), i)
			}
			enc := string(g.Encode(e))
			if seen[enc] {
				t.Fatalf("%s: generator %d repeats or is trivial", g.Name(), i)
			}
			seen[enc] = true
			if _, err := g.Decode([]byte(enc)); err != nil {
				t.Fatalf("%s: generator %d is not a group member: %v", g.Name(), i, err)
			}
		}
	}
}

// TestStepDeterministicAcrossGOMAXPROCS: with a seeded reader the
// encoded step is byte-identical whether the per-item work runs on one
// processor or four.
func TestStepDeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, pc := range proofCases {
		g := pc.g
		var encs [][]byte
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			r := seeded("gomaxprocs"+g.Name(), 0)
			srv, _ := crypto.GenerateKeyPair(g, r)
			in, _ := makeInputs(t, g, srv.Public, 9, pc.w, r)
			step, err := Step(g, srv, srv.Public, in, r)
			if err != nil {
				t.Fatal(err)
			}
			enc := EncodeStepOutput(g, step)
			dec, err := DecodeStepOutput(g, enc, 9, pc.w)
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyStep(g, srv.Public, srv.Public, in, dec); err != nil {
				t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
			}
			encs = append(encs, enc)
		}
		if !bytes.Equal(encs[0], encs[1]) {
			t.Errorf("%s: same seed encodes differently at GOMAXPROCS 1 and 4", g.Name())
		}
	}
}

// TestStepOutputSize pins the wire size of one step at the benchmark's
// post-64 shape, so a per-copy or per-repetition encoding cannot grow
// back: 3 elements per item for the lists, 3 for the proof, 2 scalars.
func TestStepOutputSize(t *testing.T) {
	g := crypto.P256()
	srv, _ := crypto.GenerateKeyPair(g, nil)
	in, _ := makeInputs(t, g, srv.Public, 64, 1, nil)
	step, err := Step(g, srv, srv.Public, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if size := len(EncodeStepOutput(g, step)); size > 20<<10 {
		t.Errorf("64 x 1 step on P-256 encodes to %d bytes, want at most %d", size, 20<<10)
	}
}
