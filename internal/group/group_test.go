package group

import (
	"encoding/json"
	"testing"
	"time"

	"dissent/internal/crypto"
	"dissent/internal/dcnet"
)

func testKeys(t *testing.T, n int) []crypto.Element {
	t.Helper()
	g := crypto.P256()
	keys := make([]crypto.Element, n)
	for i := range keys {
		kp, err := crypto.GenerateKeyPair(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = kp.Public
	}
	return keys
}

func testMsgKeys(t *testing.T, n int) []crypto.Element {
	t.Helper()
	g := crypto.ModP512Test()
	keys := make([]crypto.Element, n)
	for i := range keys {
		kp, err := crypto.GenerateKeyPair(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = kp.Public
	}
	return keys
}

func testPolicy() Policy {
	p := DefaultPolicy()
	p.MessageGroup = "modp-512-test"
	return p
}

func testDef(t *testing.T, servers, clients int) *Definition {
	t.Helper()
	d, err := NewDefinition("test", testKeys(t, servers), testMsgKeys(t, servers), testKeys(t, clients), testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDefinitionValid(t *testing.T) {
	d := testDef(t, 3, 8)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Servers) != 3 || len(d.Clients) != 8 {
		t.Fatalf("membership counts wrong: %d/%d", len(d.Servers), len(d.Clients))
	}
}

func TestNewDefinitionRejectsEmpty(t *testing.T) {
	if _, err := NewDefinition("x", nil, nil, testKeys(t, 2), testPolicy()); err == nil {
		t.Error("no servers accepted")
	}
	if _, err := NewDefinition("x", testKeys(t, 2), testMsgKeys(t, 2), nil, testPolicy()); err == nil {
		t.Error("no clients accepted")
	}
	if _, err := NewDefinition("x", testKeys(t, 2), testMsgKeys(t, 1), testKeys(t, 2), testPolicy()); err == nil {
		t.Error("mismatched msg key count accepted")
	}
}

func TestPolicyValidate(t *testing.T) {
	if err := DefaultPolicy().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Policy){
		func(p *Policy) { p.Alpha = 1.5 },
		func(p *Policy) { p.Alpha = -0.1 },
		func(p *Policy) { p.WindowThreshold = 0 },
		func(p *Policy) { p.WindowMultiplier = 0.9 },
		func(p *Policy) { p.HardTimeout = 0 },
		func(p *Policy) { p.RetainRounds = 0 },
		func(p *Policy) { p.MessageGroup = "bogus" },
	}
	for i, mut := range bad {
		p := testPolicy()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("bad policy %d accepted", i)
		}
	}
}

// TestPolicyValidateSlotParameters: the slot parameters are rejected when
// the group definition is validated, by the schedule's own rule, not
// first when every member builds its schedule at the end of setup.
func TestPolicyValidateSlotParameters(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Policy)
	}{
		{"DefaultOpenLen below the slot minimum", func(p *Policy) { p.DefaultOpenLen = dcnet.MinSlotLen - 1 }},
		{"MaxSlotLen below DefaultOpenLen", func(p *Policy) { p.MaxSlotLen = p.DefaultOpenLen - 1 }},
		{"IdleCloseRounds zero", func(p *Policy) { p.IdleCloseRounds = 0 }},
	} {
		p := testPolicy()
		tc.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if _, err := NewDefinition("x", testKeys(t, 1), testMsgKeys(t, 1), testKeys(t, 1), p); err == nil {
			t.Errorf("%s: definition accepted", tc.name)
		}
	}
}

func TestIDFromKeyDeterministic(t *testing.T) {
	g := crypto.P256()
	kp, _ := crypto.GenerateKeyPair(g, nil)
	if IDFromKey(g, kp.Public) != IDFromKey(g, kp.Public) {
		t.Error("non-deterministic ID derivation")
	}
	other, _ := crypto.GenerateKeyPair(g, nil)
	if IDFromKey(g, kp.Public) == IDFromKey(g, other.Public) {
		t.Error("ID collision for distinct keys")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	d := testDef(t, 2, 4)
	enc, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var got Definition
	if err := json.Unmarshal(enc, &got); err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("round-tripped definition invalid: %v", err)
	}
	if got.GroupID() != d.GroupID() {
		t.Error("group ID changed across serialization")
	}
	if got.Name != d.Name || len(got.Servers) != 2 || len(got.Clients) != 4 {
		t.Error("fields lost in round trip")
	}
	g := d.Group()
	for i := range d.Servers {
		if !g.Equal(got.Servers[i].PubKey, d.Servers[i].PubKey) {
			t.Error("server key changed")
		}
	}
}

func TestUnmarshalRejectsBadKeys(t *testing.T) {
	var d Definition
	if err := json.Unmarshal([]byte(`{"servers":[{"pubkey":"zz"}]}`), &d); err == nil {
		t.Error("bad hex accepted")
	}
	if err := json.Unmarshal([]byte(`{"servers":[{"pubkey":"ffff"}]}`), &d); err == nil {
		t.Error("bad point accepted")
	}
}

func TestGroupIDBindsEverything(t *testing.T) {
	d1 := testDef(t, 2, 3)
	id1 := d1.GroupID()

	// Changing the name changes the ID.
	d1.Name = "other"
	if d1.GroupID() == id1 {
		t.Error("group ID ignores name")
	}
	d1.Name = "test"

	// Changing policy changes the ID.
	d1.Policy.Alpha = 0.5
	if d1.GroupID() == id1 {
		t.Error("group ID ignores policy")
	}
}

func TestIndexLookups(t *testing.T) {
	d := testDef(t, 3, 7)
	for i, m := range d.Servers {
		if d.ServerIndex(m.ID) != i {
			t.Errorf("ServerIndex(%s) != %d", m.ID, i)
		}
		if d.ClientIndex(m.ID) != -1 {
			t.Error("server found in client list")
		}
	}
	for i, m := range d.Clients {
		if d.ClientIndex(m.ID) != i {
			t.Errorf("ClientIndex(%s) != %d", m.ID, i)
		}
	}
	var unknown NodeID
	if d.ServerIndex(unknown) != -1 || d.ClientIndex(unknown) != -1 {
		t.Error("unknown ID found")
	}
}

func TestUpstreamServerSpread(t *testing.T) {
	d := testDef(t, 3, 9)
	counts := make([]int, 3)
	for i := range d.Clients {
		s := d.UpstreamServer(i)
		if s < 0 || s >= 3 {
			t.Fatalf("upstream index %d out of range", s)
		}
		counts[s]++
	}
	for i, c := range counts {
		if c != 3 {
			t.Errorf("server %d has %d clients, want 3", i, c)
		}
	}
}

func TestValidateCatchesTamperedID(t *testing.T) {
	d := testDef(t, 2, 2)
	d.Clients[0].ID[0] ^= 0xFF
	if err := d.Validate(); err == nil {
		t.Error("tampered member ID accepted")
	}
}

func TestValidateCatchesDuplicate(t *testing.T) {
	d := testDef(t, 2, 2)
	d.Clients[1] = d.Clients[0]
	if err := d.Validate(); err == nil {
		t.Error("duplicate member accepted")
	}
}

func TestDefaultPolicyMatchesPaper(t *testing.T) {
	p := DefaultPolicy()
	if p.WindowThreshold != 0.95 {
		t.Error("threshold should be 95% per §5.1")
	}
	if p.WindowMultiplier != 1.1 {
		t.Error("multiplier should default to the paper's chosen 1.1x")
	}
	if p.HardTimeout != 120*time.Second {
		t.Error("hard timeout should be the paper's 120s")
	}
}
