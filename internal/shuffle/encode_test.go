package shuffle

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dissent/internal/crypto"
)

// encodedStep returns a valid n x w step on P-256, its input list and
// the server key it verifies under.
func encodedStep(t testing.TB, n, w int) (enc []byte, in []Vec, srv *crypto.KeyPair) {
	t.Helper()
	g := crypto.P256()
	r := seeded("encoded-step", n*16+w)
	srv, _ = crypto.GenerateKeyPair(g, r)
	in, _ = makeInputs(t, g, srv.Public, n, w, r)
	step, err := Step(g, srv, srv.Public, in, r)
	if err != nil {
		t.Fatal(err)
	}
	return EncodeStepOutput(g, step), in, srv
}

// malformedSteps are the encodings a shape-checked decoder must refuse,
// each derived from a valid 3 x 2 step.
func malformedSteps(t testing.TB) map[string][]byte {
	g := crypto.P256()
	valid, _, _ := encodedStep(t, 3, 2)
	eLen, sLen := g.ElementLen(), crypto.ScalarLen(g)
	nElems, _ := stepCounts(3, 2)
	edit := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), valid...)) }
	header := func(n, w uint32) []byte {
		return edit(func(b []byte) []byte {
			binary.BigEndian.PutUint32(b, n)
			binary.BigEndian.PutUint32(b[4:], w)
			return b
		})
	}
	smaller, _, _ := encodedStep(t, 2, 2)
	larger, _, _ := encodedStep(t, 4, 2)
	narrower, _, _ := encodedStep(t, 3, 1)
	return map[string][]byte{
		"empty":              {},
		"header only":        valid[:8],
		"truncated":          valid[:len(valid)-1],
		"trailing byte":      append(append([]byte(nil), valid...), 0),
		"n - 1":              smaller,
		"n + 1":              larger,
		"width mismatch":     narrower,
		"header says n + 1":  header(4, 2),
		"header says w = 0":  header(3, 0),
		"absurd counts":      header(0xffffffff, 0xffffffff),
		"counts overflowing": header(1<<31, 1<<31),
		"scalar = q": edit(func(b []byte) []byte {
			copy(b[8+nElems*eLen:], crypto.EncodeScalar(g, g.Order()))
			return b
		}),
		"last scalar all ones": edit(func(b []byte) []byte {
			copy(b[len(b)-sLen:], bytes.Repeat([]byte{0xff}, sLen))
			return b
		}),
		"element off the curve": edit(func(b []byte) []byte {
			b[8], b[9] = 0x02, 0xff
			for i := 10; i < 8+eLen; i++ {
				b[i] = 0xff
			}
			return b
		}),
	}
}

func TestDecodeStepOutputRejectsMalformed(t *testing.T) {
	g := crypto.P256()
	for name, data := range malformedSteps(t) {
		if _, err := DecodeStepOutput(g, data, 3, 2); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	valid, _, _ := encodedStep(t, 3, 2)
	for _, shape := range [][2]int{{0, 2}, {3, 0}, {-1, 2}, {2, 3}} {
		if _, err := DecodeStepOutput(g, valid, shape[0], shape[1]); err == nil {
			t.Errorf("3 x 2 step accepted as %d x %d", shape[0], shape[1])
		}
	}
}

// TestDecodeStepOutputIdentityCommitment: the identity is a group
// member, so a step carrying it as a commitment decodes — and is then
// refused by the proof, not by the codec.
func TestDecodeStepOutputIdentityCommitment(t *testing.T) {
	g := crypto.P256()
	valid, in, srv := encodedStep(t, 3, 2)
	eLen := g.ElementLen()
	firstC := 8 + 3*3*2*eLen // past Shuffled and Shares
	copy(valid[firstC:firstC+eLen], g.Encode(g.Identity()))
	step, err := DecodeStepOutput(g, valid, 3, 2)
	if err != nil {
		t.Fatalf("identity commitment refused by the decoder: %v", err)
	}
	if !g.IsIdentity(step.Proof.C[0]) {
		t.Fatal("offset of the first commitment is wrong")
	}
	if err := VerifyStep(g, srv.Public, srv.Public, in, step); err == nil {
		t.Error("step with an identity commitment verified")
	}
}

// FuzzDecodeStepOutput: whatever the bytes and the expected shape, the
// decoder neither panics nor accepts a non-canonical encoding, and what
// it accepts the verifier can be handed safely.
func FuzzDecodeStepOutput(f *testing.F) {
	valid, in, srv := encodedStep(f, 3, 2)
	f.Add(valid, 3, 2)
	for _, data := range malformedSteps(f) {
		f.Add(data, 3, 2)
	}
	identity := append([]byte(nil), valid...)
	copy(identity[8+3*3*2*33:], make([]byte, 33))
	f.Add(identity, 3, 2)
	f.Add(valid, 4, 2)
	f.Add(valid, 3, 1)
	g := crypto.P256()
	f.Fuzz(func(t *testing.T, data []byte, n, w int) {
		if n < -1 || n > 8 || w < -1 || w > 4 {
			return // the shape is the caller's own, never the peer's
		}
		step, err := DecodeStepOutput(g, data, n, w)
		if err != nil {
			return
		}
		if len(step.Shuffled) != n || len(step.Shuffled[0]) != w {
			t.Fatalf("decoded a %d x %d step for an expected %d x %d", len(step.Shuffled), len(step.Shuffled[0]), n, w)
		}
		if !bytes.Equal(EncodeStepOutput(g, step), data) {
			t.Fatal("accepted encoding is not canonical")
		}
		if n == 3 && w == 2 {
			if err := VerifyStep(g, srv.Public, srv.Public, in, step); err != nil && bytes.Equal(data, valid) {
				t.Fatalf("valid step rejected: %v", err)
			}
		}
	})
}
