package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"dissent/internal/group"
)

func TestEncDecPrimitives(t *testing.T) {
	var e encBuf
	e.U8(7)
	e.U32(1 << 30)
	e.U64(1 << 60)
	e.Bytes([]byte("hello"))
	e.ByteSlices([][]byte{[]byte("a"), nil, []byte("ccc")})
	e.Int32s([]int32{3, -1, 99})

	d := decBuf{B: e.B}
	if v, _ := d.U8(); v != 7 {
		t.Fatal("u8")
	}
	if v, _ := d.U32(); v != 1<<30 {
		t.Fatal("u32")
	}
	if v, _ := d.U64(); v != 1<<60 {
		t.Fatal("u64")
	}
	if v, _ := d.Bytes(); string(v) != "hello" {
		t.Fatal("bytes")
	}
	bs, err := d.ByteSlices()
	if err != nil || len(bs) != 3 || string(bs[2]) != "ccc" {
		t.Fatal("byteSlices")
	}
	is, err := d.Int32s()
	if err != nil || len(is) != 3 || is[1] != -1 {
		t.Fatal("ints")
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestDecBufTruncation(t *testing.T) {
	var e encBuf
	e.Bytes([]byte("payload"))
	for cut := 0; cut < len(e.B); cut++ {
		d := decBuf{B: e.B[:cut]}
		if v, err := d.Bytes(); err == nil && len(v) == 7 {
			t.Fatalf("truncation at %d yielded full payload", cut)
		}
	}
}

func TestDecBufRejectsHugeCounts(t *testing.T) {
	// A length prefix claiming 2^31 elements must not allocate.
	var e encBuf
	e.U32(1 << 31)
	d := decBuf{B: e.B}
	if _, err := d.ByteSlices(); err == nil {
		t.Error("huge byteSlices count accepted")
	}
	d = decBuf{B: e.B}
	if _, err := d.Int32s(); err == nil {
		t.Error("huge ints count accepted")
	}
}

func TestMessageEncodeDecodeRoundTrip(t *testing.T) {
	var from group.NodeID
	copy(from[:], []byte("abcdefgh"))
	m := &Message{From: from, Type: MsgClientSubmit, Round: 42, Body: []byte("body"), Sig: []byte("sig")}
	got, err := DecodeMessage(EncodeMessage(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.From != m.From || got.Type != m.Type || got.Round != m.Round ||
		!bytes.Equal(got.Body, m.Body) || !bytes.Equal(got.Sig, m.Sig) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, m)
	}
	// Unsigned message round-trips with nil sig.
	m2 := &Message{From: from, Type: MsgOutput, Round: 1, Body: []byte("x")}
	got2, err := DecodeMessage(EncodeMessage(m2))
	if err != nil {
		t.Fatal(err)
	}
	if got2.Sig != nil {
		t.Error("empty sig decoded as non-nil")
	}
}

func TestMessageDecodeRejectsTruncated(t *testing.T) {
	m := &Message{Type: MsgCommit, Round: 3, Body: []byte("abc")}
	enc := EncodeMessage(m)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeMessage(enc[:cut]); err == nil {
			t.Fatalf("truncated message at %d accepted", cut)
		}
	}
	if _, err := DecodeMessage(append(enc, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestPayloadCodecsRoundTrip(t *testing.T) {
	checks := []struct {
		name   string
		encode func() []byte
		decode func([]byte) error
	}{
		{"ShuffleSubmit", func() []byte { return (&ShuffleSubmit{Session: 7, CT: []byte("ct")}).Encode() },
			func(b []byte) error {
				p, err := DecodeShuffleSubmit(b)
				if err == nil && (p.Session != 7 || string(p.CT) != "ct") {
					t.Error("fields mismatch")
				}
				return err
			}},
		{"ShuffleList", func() []byte {
			return (&ShuffleList{Session: 7, Clients: []int32{1, 5}, CTs: [][]byte{[]byte("a"), []byte("b")}}).Encode()
		}, func(b []byte) error {
			p, err := DecodeShuffleList(b)
			if err == nil && (p.Session != 7 || len(p.Clients) != 2 || p.Clients[1] != 5 || string(p.CTs[1]) != "b") {
				t.Error("fields mismatch")
			}
			return err
		}},
		{"ShuffleStep", func() []byte {
			return (&ShuffleStep{Session: 2, Stage: 1, Data: []byte("step")}).Encode()
		}, func(b []byte) error {
			p, err := DecodeShuffleStep(b)
			if err == nil && (p.Session != 2 || p.Stage != 1) {
				t.Error("fields mismatch")
			}
			return err
		}},
		{"Schedule", func() []byte {
			return (&Schedule{Keys: [][]byte{[]byte("k1")}, Sigs: [][]byte{[]byte("s1"), []byte("s2")}}).Encode()
		}, func(b []byte) error {
			p, err := DecodeSchedule(b)
			if err == nil && (len(p.Keys) != 1 || len(p.Sigs) != 2) {
				t.Error("fields mismatch")
			}
			return err
		}},
		{"ClientSubmit", func() []byte { return (&ClientSubmit{CT: []byte("ciphertext")}).Encode() },
			func(b []byte) error { _, err := DecodeClientSubmit(b); return err }},
		{"Inventory", func() []byte { return (&Inventory{Attempt: 3, Clients: []int32{0, 2}}).Encode() },
			func(b []byte) error {
				p, err := DecodeInventory(b)
				if err == nil && (p.Attempt != 3 || len(p.Hash) != 0 || len(p.BeaconCommit) != 0) {
					t.Error("fields mismatch")
				}
				return err
			}},
		{"Inventory+commitment", func() []byte {
			return (&Inventory{Clients: []int32{1}, Hash: bytes.Repeat([]byte{7}, commitmentLen),
				BeaconCommit: bytes.Repeat([]byte{8}, commitmentLen)}).Encode()
		}, func(b []byte) error {
			p, err := DecodeInventory(b)
			if err == nil && (len(p.Hash) != commitmentLen || p.Hash[0] != 7 || len(p.BeaconCommit) != commitmentLen || p.BeaconCommit[0] != 8) {
				t.Error("commitment mismatch")
			}
			return err
		}},
		{"Commit", func() []byte {
			return (&Commit{Attempt: 1, Hash: []byte("h"), BeaconCommit: []byte("bc")}).Encode()
		}, func(b []byte) error {
			p, err := DecodeCommit(b)
			if err == nil && string(p.BeaconCommit) != "bc" {
				t.Error("beacon commit mismatch")
			}
			return err
		}},
		{"Share", func() []byte {
			return (&Share{Attempt: 1, CT: []byte("share"), BeaconShare: []byte("bs"), Nonce: []byte("R")}).Encode()
		}, func(b []byte) error {
			p, err := DecodeShare(b)
			if err == nil && (string(p.BeaconShare) != "bs" || string(p.Nonce) != "R") {
				t.Error("beacon share or nonce mismatch")
			}
			return err
		}},
		{"Certify", func() []byte { return (&Certify{Attempt: 0, Sig: []byte("sig")}).Encode() },
			func(b []byte) error { _, err := DecodeCertify(b); return err }},
		{"RoundOutput", func() []byte {
			return (&RoundOutput{Cleartext: []byte("clear"), Sigs: [][]byte{[]byte("s")}, Count: 9, Failed: true,
				Beacon: [][]byte{[]byte("b0"), []byte("b1")}}).Encode()
		}, func(b []byte) error {
			p, err := DecodeRoundOutput(b)
			if err == nil && (!p.Failed || p.Count != 9 || len(p.Beacon) != 2 || string(p.Beacon[1]) != "b1") {
				t.Error("fields mismatch")
			}
			return err
		}},
		{"BlameStart", func() []byte { return (&BlameStart{Session: 7}).Encode() },
			func(b []byte) error { _, err := DecodeBlameStart(b); return err }},
		{"TraceBits", func() []byte {
			return (&TraceBits{Session: 7, ClientBits: []byte{1, 0}, ServerBit: 1,
				Direct: []int32{0}, DirectBits: []byte{1}, Evidence: [][]byte{[]byte("ev")}}).Encode()
		}, func(b []byte) error {
			p, err := DecodeTraceBits(b)
			if err == nil && (p.ServerBit != 1 || len(p.Evidence) != 1) {
				t.Error("fields mismatch")
			}
			return err
		}},
		{"RebuttalRequest", func() []byte {
			return (&RebuttalRequest{Session: 7, AccRound: 3, AccBit: 99, ServerBits: []byte{0, 1}}).Encode()
		}, func(b []byte) error {
			p, err := DecodeRebuttalRequest(b)
			if err == nil && (p.AccRound != 3 || p.AccBit != 99) {
				t.Error("fields mismatch")
			}
			return err
		}},
		{"Rebuttal", func() []byte {
			return (&Rebuttal{Session: 7, ServerIdx: 2, Secret: []byte("k"), ProofC: []byte("c"), ProofZ: []byte("z")}).Encode()
		}, func(b []byte) error { _, err := DecodeRebuttal(b); return err }},
		{"BlameDone", func() []byte {
			return (&BlameDone{Session: 7, Verdict: 2, Culprit: group.NodeID{1, 2}}).Encode()
		}, func(b []byte) error {
			p, err := DecodeBlameDone(b)
			if err == nil && p.Verdict != 2 {
				t.Error("verdict mismatch")
			}
			return err
		}},
	}
	for _, c := range checks {
		enc := c.encode()
		if err := c.decode(enc); err != nil {
			t.Errorf("%s: decode failed: %v", c.name, err)
		}
		// Every codec must reject truncation of the final byte.
		if len(enc) > 0 {
			if err := c.decode(enc[:len(enc)-1]); err == nil {
				t.Errorf("%s: truncated payload accepted", c.name)
			}
		}
		// And trailing garbage.
		if err := c.decode(append(append([]byte(nil), enc...), 0xFF)); err == nil {
			t.Errorf("%s: trailing garbage accepted", c.name)
		}
	}
}

// FuzzDecodeShare exercises the Share codec, whose nonce field peers
// feed straight into a group-element decoder: it must never panic, and
// whatever it accepts must re-encode to the same bytes.
func FuzzDecodeShare(f *testing.F) {
	full := (&Share{Attempt: 2, CT: []byte("ciphertext share"), BeaconShare: []byte("beacon share"),
		Nonce: bytes.Repeat([]byte{2}, 33)}).Encode()
	f.Add(full)
	f.Add((&Share{CT: []byte("ct"), Nonce: []byte{3}}).Encode()) // beacon off, short nonce
	f.Add((&Share{}).Encode())                                   // every field empty
	f.Add(full[:len(full)-33-4])                                 // the nonce field missing altogether
	f.Add(full[:len(full)-1])                                    // truncated nonce
	f.Add(append(append([]byte(nil), full...), 0))               // trailing byte
	f.Add([]byte{0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF})            // absurd length prefix
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeShare(data)
		if err != nil {
			return
		}
		if !bytes.Equal(p.Encode(), data) {
			t.Fatalf("accepted share re-encodes differently: %x vs %x", p.Encode(), data)
		}
	})
}

// FuzzDecodeInventory exercises the Inventory codec and its commitment
// bound: it must never panic, whatever it accepts must re-encode to the
// same bytes, and it accepts a commitment only at exactly digest length
// and a beacon commitment only beside one.
func FuzzDecodeInventory(f *testing.F) {
	h, bc := bytes.Repeat([]byte{0xA1}, commitmentLen), bytes.Repeat([]byte{0xB2}, commitmentLen)
	full := (&Inventory{Attempt: 0, Clients: []int32{0, 2, 5}, Hash: h, BeaconCommit: bc}).Encode()
	f.Add(full)
	f.Add((&Inventory{Attempt: 1, Clients: []int32{4}}).Encode())                // explicit path: no commitment
	f.Add((&Inventory{Clients: []int32{4}, Hash: h}).Encode())                   // beacon off
	f.Add((&Inventory{Hash: h[:commitmentLen-1]}).Encode())                      // short commitment
	f.Add((&Inventory{Hash: append(h, 0)}).Encode())                             // long commitment
	f.Add((&Inventory{BeaconCommit: bc}).Encode())                               // beacon commitment alone
	f.Add((&Inventory{Hash: h, BeaconCommit: bc[:1]}).Encode())                  // short beacon commitment
	f.Add(full[:len(full)-commitmentLen-4])                                      // pre-merge body: fields missing
	f.Add(append(append([]byte(nil), full...), 0))                               // trailing byte
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})                // absurd commitment length
	f.Add([]byte{0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0, 0}) // absurd client count
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeInventory(data)
		if err != nil {
			return
		}
		if !bytes.Equal(p.Encode(), data) {
			t.Fatalf("accepted inventory re-encodes differently: %x vs %x", p.Encode(), data)
		}
		if (len(p.Hash) != 0 && len(p.Hash) != commitmentLen) ||
			(len(p.BeaconCommit) != 0 && (len(p.BeaconCommit) != commitmentLen || len(p.Hash) == 0)) {
			t.Fatalf("accepted commitment lengths %d/%d", len(p.Hash), len(p.BeaconCommit))
		}
	})
}

// FuzzDecodeShuffleList exercises the one list codec both shuffle
// sessions exchange: it must never panic or allocate on the strength of
// a hostile count, whatever it accepts must re-encode to the same bytes,
// and it accepts only lists with one ciphertext per client.
func FuzzDecodeShuffleList(f *testing.F) {
	full := (&ShuffleList{Session: 3, Clients: []int32{0, 2, 5},
		CTs: [][]byte{bytes.Repeat([]byte{2}, 66), bytes.Repeat([]byte{3}, 66), bytes.Repeat([]byte{4}, 66)}}).Encode()
	f.Add(full)
	f.Add((&ShuffleList{}).Encode())                                                   // scheduling session, nobody submitted
	f.Add((&ShuffleList{Session: 1, Clients: []int32{4}, CTs: [][]byte{{}}}).Encode()) // zero-length CT
	f.Add((&ShuffleList{Clients: []int32{1, 2}, CTs: [][]byte{{9}}}).Encode())         // shape mismatch: fewer CTs
	f.Add((&ShuffleList{Clients: []int32{1}, CTs: [][]byte{{9}, {8}}}).Encode())       // shape mismatch: more CTs
	f.Add(full[:len(full)-1])                                                          // truncated
	f.Add(append(append([]byte(nil), full...), 0))                                     // trailing byte
	f.Add([]byte{0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})                                  // absurd client count
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})                      // absurd CT count
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF})          // absurd CT length
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeShuffleList(data)
		if err != nil {
			return
		}
		if len(p.Clients) != len(p.CTs) {
			t.Fatalf("accepted %d clients with %d ciphertexts", len(p.Clients), len(p.CTs))
		}
		if !bytes.Equal(p.Encode(), data) {
			t.Fatalf("accepted list re-encodes differently: %x vs %x", p.Encode(), data)
		}
	})
}

func TestInventoryCodecProperty(t *testing.T) {
	f := func(attempt int32, clients []int32, commit, beacon bool, fill byte) bool {
		p := &Inventory{Attempt: attempt, Clients: clients}
		if commit {
			p.Hash = bytes.Repeat([]byte{fill}, commitmentLen)
			if beacon {
				p.BeaconCommit = bytes.Repeat([]byte{^fill}, commitmentLen)
			}
		}
		got, err := DecodeInventory(p.Encode())
		if err != nil {
			return false
		}
		if got.Attempt != attempt || len(got.Clients) != len(clients) ||
			!bytes.Equal(got.Hash, p.Hash) || !bytes.Equal(got.BeaconCommit, p.BeaconCommit) {
			return false
		}
		for i := range clients {
			if got.Clients[i] != clients[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWireSizeAccountsSignature(t *testing.T) {
	m := &Message{Type: MsgCommit, Body: make([]byte, 100)}
	unsigned := m.WireSize()
	m.Sig = make([]byte, 64)
	signed := m.WireSize()
	if unsigned != signed {
		t.Errorf("unsigned %d vs signed %d: an unsigned message should account as signed", unsigned, signed)
	}
	if signed < 100+64 {
		t.Error("wire size below payload+sig")
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for mt := MsgPseudonymSubmit; mt <= MsgBlameDone; mt++ {
		if s := mt.String(); s == "" || s[:3] == "msg" && s != "msgtype(0)" && len(s) > 8 && s[:8] == "msgtype(" {
			t.Errorf("missing name for type %d", mt)
		}
	}
	if MsgType(200).String() != "msgtype(200)" {
		t.Error("unknown type formatting")
	}
}
