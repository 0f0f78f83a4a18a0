package group

import (
	"bytes"
	"testing"

	"dissent/internal/crypto"
	"dissent/internal/wire"
)

// buildRosterFixture builds a small definition plus the server
// keypairs needed to certify updates (usable from fuzz seed setup).
func buildRosterFixture(servers, clients int) (*Definition, []*crypto.KeyPair, []*crypto.KeyPair, error) {
	keyGrp := crypto.P256()
	msgGrp := crypto.ModP512Test()
	sKPs := make([]*crypto.KeyPair, servers)
	sKeys := make([]crypto.Element, servers)
	sMsgKeys := make([]crypto.Element, servers)
	for i := range sKPs {
		sKPs[i], _ = crypto.GenerateKeyPair(keyGrp, nil)
		sKeys[i] = sKPs[i].Public
		mk, _ := crypto.GenerateKeyPair(msgGrp, nil)
		sMsgKeys[i] = mk.Public
	}
	cKPs := make([]*crypto.KeyPair, clients)
	cKeys := make([]crypto.Element, clients)
	for i := range cKPs {
		cKPs[i], _ = crypto.GenerateKeyPair(keyGrp, nil)
		cKeys[i] = cKPs[i].Public
	}
	policy := DefaultPolicy()
	policy.MessageGroup = "modp-512-test"
	def, err := NewDefinition("roster-test", sKeys, sMsgKeys, cKeys, policy)
	if err != nil {
		return nil, nil, nil, err
	}
	// Re-associate server keypairs with the (ID-sorted) definition.
	ordered := make([]*crypto.KeyPair, servers)
	for i, m := range def.Servers {
		for _, kp := range sKPs {
			if IDFromKey(keyGrp, kp.Public) == m.ID {
				ordered[i] = kp
			}
		}
	}
	return def, ordered, cKPs, nil
}

func rosterFixture(t *testing.T, servers, clients int) (*Definition, []*crypto.KeyPair, []*crypto.KeyPair) {
	t.Helper()
	def, sKPs, cKPs, err := buildRosterFixture(servers, clients)
	if err != nil {
		t.Fatal(err)
	}
	return def, sKPs, cKPs
}

// certify signs an update with every server key in index order.
func certify(t *testing.T, def *Definition, u *RosterUpdate, sKPs []*crypto.KeyPair) {
	t.Helper()
	u.Sigs = nil
	for _, kp := range sKPs {
		sig, err := SignRosterUpdate(u, def.GroupID(), kp, nil)
		if err != nil {
			t.Fatal(err)
		}
		u.Sigs = append(u.Sigs, sig)
	}
}

func TestRosterUpdateChain(t *testing.T) {
	def, sKPs, _ := rosterFixture(t, 3, 4)
	genesisID := def.GroupID()

	// Version 1: expel client 1.
	u1 := &RosterUpdate{
		Version:    1,
		PrevDigest: def.RosterDigest(),
		Remove:     []NodeID{def.Clients[1].ID},
	}
	certify(t, def, u1, sKPs)
	d1, err := def.ApplyRosterUpdate(u1)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Version != 1 || !d1.Clients[1].Expelled {
		t.Fatalf("version %d expelled=%v after removal", d1.Version, d1.Clients[1].Expelled)
	}
	if d1.GroupID() != genesisID {
		t.Fatal("group ID changed across roster evolution")
	}
	if d1.ActiveClients() != 3 {
		t.Fatalf("active clients %d, want 3", d1.ActiveClients())
	}
	if def.Version != 0 || def.Clients[1].Expelled {
		t.Fatal("ApplyRosterUpdate mutated the receiver")
	}

	// Version 2: re-admit client 1 and admit a new member.
	keyGrp := crypto.P256()
	joiner, _ := crypto.GenerateKeyPair(keyGrp, nil)
	pseu, _ := crypto.GenerateKeyPair(keyGrp, nil)
	u2 := &RosterUpdate{
		Version:    2,
		PrevDigest: d1.RosterDigest(),
		Admit: []RosterMember{
			{PubKey: keyGrp.Encode(d1.Clients[1].PubKey)},
			{PubKey: keyGrp.Encode(joiner.Public), PseuKey: keyGrp.Encode(pseu.Public), Addr: "127.0.0.1:9999"},
		},
	}
	certify(t, d1, u2, sKPs)
	d2, err := d1.ApplyRosterUpdate(u2)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Clients[1].Expelled {
		t.Fatal("re-admission left the client expelled")
	}
	if len(d2.Clients) != 5 {
		t.Fatalf("%d clients after admission, want 5", len(d2.Clients))
	}
	if d2.ClientIndex(IDFromKey(keyGrp, joiner.Public)) != 4 {
		t.Fatal("joiner not appended at a stable index")
	}
	if d2.RosterDigest() != u2.Digest(genesisID) {
		t.Fatal("digest chain head mismatch")
	}
}

func TestRosterUpdateRejections(t *testing.T) {
	def, sKPs, _ := rosterFixture(t, 2, 3)
	keyGrp := crypto.P256()
	joiner, _ := crypto.GenerateKeyPair(keyGrp, nil)

	base := func() *RosterUpdate {
		return &RosterUpdate{Version: 1, PrevDigest: def.RosterDigest(),
			Remove: []NodeID{def.Clients[0].ID}}
	}
	cases := []struct {
		name   string
		mutate func(*RosterUpdate)
	}{
		{"stale version", func(u *RosterUpdate) { u.Version = 0 }},
		{"future version", func(u *RosterUpdate) { u.Version = 5 }},
		{"wrong prev digest", func(u *RosterUpdate) { u.PrevDigest[0] ^= 1 }},
		{"missing signature", func(u *RosterUpdate) { u.Sigs = u.Sigs[:1] }},
		{"tampered signature", func(u *RosterUpdate) {
			u.Sigs[0] = append([]byte(nil), u.Sigs[0]...)
			u.Sigs[0][0] ^= 1
		}},
		{"tampered content", func(u *RosterUpdate) { u.Remove = nil }},
		{"unknown removal", func(u *RosterUpdate) {
			u.Remove = append(u.Remove, NodeID{9, 9, 9})
		}},
		{"admit and remove overlap", func(u *RosterUpdate) {
			u.Admit = append(u.Admit, RosterMember{PubKey: keyGrp.Encode(def.Clients[0].PubKey)})
		}},
		{"new member without pseudonym key", func(u *RosterUpdate) {
			u.Admit = append(u.Admit, RosterMember{PubKey: keyGrp.Encode(joiner.Public)})
		}},
		{"admit a server", func(u *RosterUpdate) {
			u.Admit = append(u.Admit, RosterMember{PubKey: keyGrp.Encode(def.Servers[0].PubKey)})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			u := base()
			certify(t, def, u, sKPs)
			tc.mutate(u)
			if _, err := def.ApplyRosterUpdate(u); err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
		})
	}

	// The unmutated update still applies (the harness itself is sound).
	u := base()
	certify(t, def, u, sKPs)
	if _, err := def.ApplyRosterUpdate(u); err != nil {
		t.Fatalf("valid update rejected: %v", err)
	}
}

func TestRosterUpdateCodecRoundTrip(t *testing.T) {
	def, sKPs, _ := rosterFixture(t, 2, 2)
	keyGrp := crypto.P256()
	joiner, _ := crypto.GenerateKeyPair(keyGrp, nil)
	pseu, _ := crypto.GenerateKeyPair(keyGrp, nil)
	u := &RosterUpdate{
		Version:    1,
		PrevDigest: def.RosterDigest(),
		Admit: []RosterMember{
			{PubKey: keyGrp.Encode(joiner.Public), PseuKey: keyGrp.Encode(pseu.Public), Addr: "host:1234"},
		},
		Remove: []NodeID{def.Clients[0].ID},
	}
	certify(t, def, u, sKPs)
	enc := wire.Encode(u)
	dec, err := DecodeRosterUpdate(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire.Encode(dec), enc) {
		t.Fatal("roundtrip changed the encoding")
	}
	if _, err := def.ApplyRosterUpdate(dec); err != nil {
		t.Fatalf("decoded update rejected: %v", err)
	}
	// Truncations never crash and never decode successfully at lengths
	// that drop bytes.
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeRosterUpdate(enc[:i]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", i)
		}
	}
}

// FuzzRosterUpdateDecode fuzzes the wire decoder (the path a hostile
// peer reaches first) and checks that successful decodes re-encode
// canonically.
func FuzzRosterUpdateDecode(f *testing.F) {
	// Seed corpus: an empty update, a certified realistic one, and a few
	// hostile shapes (huge counts, truncations).
	empty := wire.Encode(&RosterUpdate{Version: 1})
	f.Add(empty)
	f.Add(empty[:7])
	def, sKPs, _, err := buildRosterFixture(2, 2)
	if err != nil {
		f.Fatal(err)
	}
	keyGrp := crypto.P256()
	joiner, _ := crypto.GenerateKeyPair(keyGrp, nil)
	pseu, _ := crypto.GenerateKeyPair(keyGrp, nil)
	u := &RosterUpdate{
		Version:    1,
		PrevDigest: def.RosterDigest(),
		Admit:      []RosterMember{{PubKey: keyGrp.Encode(joiner.Public), PseuKey: keyGrp.Encode(pseu.Public), Addr: "a:1"}},
		Remove:     []NodeID{def.Clients[0].ID},
	}
	for _, kp := range sKPs {
		sig, _ := SignRosterUpdate(u, def.GroupID(), kp, nil)
		u.Sigs = append(u.Sigs, sig)
	}
	full := wire.Encode(u)
	f.Add(full)
	f.Add(full[:len(full)/2])
	huge := append([]byte(nil), full...)
	for i := 40; i < 44 && i < len(huge); i++ {
		huge[i] = 0xFF // blow up the admit count
	}
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		u, err := DecodeRosterUpdate(data)
		if err != nil {
			return
		}
		reenc := wire.Encode(u)
		if !bytes.Equal(reenc, data) {
			t.Fatalf("decode/encode not canonical: %x -> %x", data, reenc)
		}
	})
}
