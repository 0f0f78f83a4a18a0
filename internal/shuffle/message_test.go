package shuffle

import (
	"bytes"
	"sort"
	"testing"

	"dissent/internal/crypto"
)

func TestVecWidth(t *testing.T) {
	g := crypto.P256()
	lim := g.EmbedLimit()
	cases := []struct{ msgLen, want int }{
		{0, 1},
		{1, 1},
		{lim, 1},
		{lim + 1, 2},
		{3*lim - 1, 3},
		{3 * lim, 3},
	}
	for _, c := range cases {
		if got := VecWidth(g, c.msgLen); got != c.want {
			t.Errorf("VecWidth(%d) = %d, want %d", c.msgLen, got, c.want)
		}
	}
}

func TestEmbedExtractMessage(t *testing.T) {
	for _, g := range []crypto.Group{crypto.P256()} {
		lim := g.EmbedLimit()
		msgs := [][]byte{
			nil,
			[]byte("short"),
			bytes.Repeat([]byte{0x5A}, lim),     // exactly one chunk
			bytes.Repeat([]byte{0x5A}, lim+1),   // spills into second
			bytes.Repeat([]byte{0x5A}, 3*lim-2), // three chunks
		}
		for _, m := range msgs {
			w := VecWidth(g, len(m)) + 1 // extra padding element
			elems, err := EmbedMessage(g, m, w, nil)
			if err != nil {
				t.Fatalf("EmbedMessage(%d bytes): %v", len(m), err)
			}
			if len(elems) != w {
				t.Fatalf("got %d elements, want %d", len(elems), w)
			}
			got, err := ExtractMessage(g, elems)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, m) && !(len(got) == 0 && len(m) == 0) {
				t.Fatalf("round-trip of %d bytes failed", len(m))
			}
		}
	}
}

func TestEmbedMessageTooLong(t *testing.T) {
	g := crypto.P256()
	m := make([]byte, 2*g.EmbedLimit()+1)
	if _, err := EmbedMessage(g, m, 2, nil); err == nil {
		t.Error("oversized message accepted")
	}
}

func TestExtractMessageEmpty(t *testing.T) {
	g := crypto.P256()
	if _, err := ExtractMessage(g, nil); err == nil {
		t.Error("empty vector accepted")
	}
}

func TestKeyShuffle(t *testing.T) {
	g := crypto.P256()
	const m, n = 3, 6
	servers := make([]*crypto.KeyPair, m)
	for i := range servers {
		servers[i], _ = crypto.GenerateKeyPair(g, nil)
	}
	keys := make([]crypto.Element, n)
	for i := range keys {
		kp, _ := crypto.GenerateKeyPair(g, nil)
		keys[i] = kp.Public
	}
	out, err := KeyShuffle(g, servers, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("got %d keys, want %d", len(out), n)
	}
	if !sameElementSet(g, keys, out) {
		t.Error("key shuffle lost or corrupted keys")
	}
}

func TestMessageShuffle(t *testing.T) {
	g := crypto.P256()
	const m = 2
	servers := make([]*crypto.KeyPair, m)
	for i := range servers {
		servers[i], _ = crypto.GenerateKeyPair(g, nil)
	}
	msgs := [][]byte{
		[]byte("first accusation"),
		[]byte("a significantly longer message that spans multiple embedded group elements for sure"),
		{}, // null message from a non-accusing client
		[]byte("third"),
	}
	width := 0
	for _, m := range msgs {
		if w := VecWidth(g, len(m)); w > width {
			width = w
		}
	}
	out, err := MessageShuffle(g, servers, msgs, width, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(msgs) {
		t.Fatalf("got %d messages, want %d", len(out), len(msgs))
	}
	if !sameByteSet(msgs, out) {
		t.Errorf("message shuffle lost or corrupted messages: %q vs %q", msgs, out)
	}
}

func TestMessageShuffleModP(t *testing.T) {
	// General message shuffles run in the mod-p group in production
	// (cheap embedding); verify the whole pipeline there too.
	g := crypto.ModP2048()
	servers := []*crypto.KeyPair{}
	for i := 0; i < 2; i++ {
		kp, err := crypto.GenerateKeyPair(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, kp)
	}
	msgs := [][]byte{[]byte("modp message one"), []byte("modp message two")}
	out, err := MessageShuffle(g, servers, msgs, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameByteSet(msgs, out) {
		t.Error("modp message shuffle mismatch")
	}
}

func sameElementSet(g crypto.Group, a, b []crypto.Element) bool {
	if len(a) != len(b) {
		return false
	}
	ea := make([]string, len(a))
	eb := make([]string, len(b))
	for i := range a {
		ea[i] = string(g.Encode(a[i]))
		eb[i] = string(g.Encode(b[i]))
	}
	sort.Strings(ea)
	sort.Strings(eb)
	for i := range ea {
		if ea[i] != eb[i] {
			return false
		}
	}
	return true
}

func sameByteSet(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	sa := make([]string, len(a))
	sb := make([]string, len(b))
	for i := range a {
		sa[i] = string(a[i])
		sb[i] = string(b[i])
	}
	sort.Strings(sa)
	sort.Strings(sb)
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}
