package core

import (
	"bytes"
	"testing"

	"dissent/internal/group"
)

// TestEnvelopeSignatureCoversEveryField: the envelope signature is over
// a digest now, not over the concatenated message — it must still
// reject a change to the group ID, the type, the round, the sender and
// any single byte of the body.
func TestEnvelopeSignatureCoversEveryField(t *testing.T) {
	f := newFixture(t, 2, 2, fixtureOpts{})
	signer, other := f.clients[0], f.clients[1]
	srv := f.servers[0]
	body := []byte("a signed body, every byte of which counts")
	genuine, err := signer.sign(MsgClientSubmit, 7, body)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.verify(genuine, false); err != nil {
		t.Fatalf("genuine message rejected: %v", err)
	}

	tamper := func(name string, mutate func(m *Message)) {
		t.Helper()
		m := &Message{From: genuine.From, Type: genuine.Type, Round: genuine.Round,
			Body: bytes.Clone(genuine.Body), Sig: genuine.Sig}
		mutate(m)
		if err := srv.verify(m, false); err == nil {
			t.Errorf("%s: signature still verifies", name)
		}
	}
	tamper("type", func(m *Message) { m.Type = MsgBlameSubmit })
	tamper("round", func(m *Message) { m.Round++ })
	tamper("round high byte", func(m *Message) { m.Round |= 1 << 56 })
	tamper("sender", func(m *Message) { m.From = other.ID() })
	tamper("body truncated", func(m *Message) { m.Body = m.Body[:len(m.Body)-1] })
	tamper("body extended", func(m *Message) { m.Body = append(m.Body, 0) })
	for i := range body {
		i := i
		tamper("body byte", func(m *Message) { m.Body[i] ^= 0x01 })
	}

	// Same message, same keys, another group: a verifier whose group ID
	// differs in one bit refuses it.
	foreign := srv.node
	foreign.grpID[31] ^= 0x01
	if err := foreign.verify(genuine, false); err == nil {
		t.Error("group ID: signature verifies under another group's ID")
	}
}

// TestSignedDigestsAreInjective: the signed digests feed their fields to
// the hash as length-prefixed parts, so two inputs that differ only in
// where a field boundary falls — identical once concatenated — still
// hash differently.
func TestSignedDigestsAreInjective(t *testing.T) {
	var grp [32]byte
	copy(grp[:], "an arbitrary group identifier...")

	// Cleartext and beacon value are adjacent variable-length fields.
	a := cleartextSignedBytes(grp, 5, 3, []byte("cleartext|bea"), []byte("con"))
	b := cleartextSignedBytes(grp, 5, 3, []byte("cleartext|"), []byte("beacon"))
	if bytes.Equal(a, b) {
		t.Error("round certificate digest ignores the cleartext/beacon boundary")
	}
	if bytes.Equal(a, cleartextSignedBytes(grp, 5, 3, []byte("cleartext|beacon"), nil)) {
		t.Error("round certificate digest ignores an empty beacon value")
	}

	// An envelope's last header byte is not its first body byte.
	var id1, id2 group.NodeID
	copy(id1[:], "sender-A")
	copy(id2[:], "sender-")
	m1 := &Message{From: id1, Type: MsgShare, Round: 1, Body: []byte("body")}
	m2 := &Message{From: id2, Type: MsgShare, Round: 1, Body: []byte("Abody")}
	if bytes.Equal(m1.digest(grp), m2.digest(grp)) {
		t.Error("message digest ignores the header/body boundary")
	}
	// And the digest is a function of exactly (group, type, round,
	// sender, body): the signature is not part of what is signed.
	m3 := &Message{From: id1, Type: MsgShare, Round: 1, Body: []byte("body"), Sig: []byte("anything")}
	if !bytes.Equal(m1.digest(grp), m3.digest(grp)) {
		t.Error("message digest depends on the signature field")
	}
}
