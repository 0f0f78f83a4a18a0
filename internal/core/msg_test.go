package core

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"

	"dissent/internal/beacon"
	"dissent/internal/dcnet"
	"dissent/internal/group"
	"dissent/internal/wire"
)

// fieldList is a payload made of one field list, for exercising the
// codec primitives every payload here is built from.
type fieldList func(c *wire.Codec)

func (f fieldList) Fields(c *wire.Codec) { f(c) }

func TestEncDecPrimitives(t *testing.T) {
	var (
		u8  byte
		u32 uint32
		u64 uint64
		b   []byte
		bs  [][]byte
		is  []int32
	)
	p := fieldList(func(c *wire.Codec) {
		c.U8(&u8)
		c.U32(&u32)
		c.U64(&u64)
		c.Bytes(&b)
		c.ByteSlices(&bs)
		c.Int32s(&is)
	})
	u8, u32, u64, b = 7, 1<<30, 1<<60, []byte("hello")
	bs, is = [][]byte{[]byte("a"), nil, []byte("ccc")}, []int32{3, -1, 99}
	enc := wire.Encode(p)

	u8, u32, u64, b, bs, is = 0, 0, 0, nil, nil, nil
	if err := wire.Decode(enc, p); err != nil {
		t.Fatal(err)
	}
	if u8 != 7 {
		t.Fatal("u8")
	}
	if u32 != 1<<30 {
		t.Fatal("u32")
	}
	if u64 != 1<<60 {
		t.Fatal("u64")
	}
	if string(b) != "hello" {
		t.Fatal("bytes")
	}
	if len(bs) != 3 || string(bs[2]) != "ccc" {
		t.Fatal("byteSlices")
	}
	if len(is) != 3 || is[1] != -1 {
		t.Fatal("ints")
	}
}

func TestDecBufTruncation(t *testing.T) {
	b := []byte("payload")
	p := fieldList(func(c *wire.Codec) { c.Bytes(&b) })
	enc := wire.Encode(p)
	for cut := 0; cut < len(enc); cut++ {
		b = nil
		if err := wire.Decode(enc[:cut], p); err == nil && len(b) == 7 {
			t.Fatalf("truncation at %d yielded full payload", cut)
		}
	}
}

func TestDecBufRejectsHugeCounts(t *testing.T) {
	// A length prefix claiming 2^31 elements must not allocate.
	huge := []byte{0x80, 0, 0, 0}
	var bs [][]byte
	if err := wire.Decode(huge, fieldList(func(c *wire.Codec) { c.ByteSlices(&bs) })); err == nil {
		t.Error("huge byteSlices count accepted")
	}
	var is []int32
	if err := wire.Decode(huge, fieldList(func(c *wire.Codec) { c.Int32s(&is) })); err == nil {
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
		{"ShuffleSubmit", func() []byte { return wire.Encode(&ShuffleSubmit{Session: 7, CT: []byte("ct")}) },
			func(b []byte) error {
				p, err := decode[ShuffleSubmit](b)
				if err == nil && (p.Session != 7 || string(p.CT) != "ct") {
					t.Error("fields mismatch")
				}
				return err
			}},
		{"ShuffleList", func() []byte {
			return wire.Encode(&ShuffleList{Session: 7, Clients: []int32{1, 5}, CTs: [][]byte{[]byte("a"), []byte("b")}})
		}, func(b []byte) error {
			p, err := decode[ShuffleList](b)
			if err == nil && (p.Session != 7 || len(p.Clients) != 2 || p.Clients[1] != 5 || string(p.CTs[1]) != "b") {
				t.Error("fields mismatch")
			}
			return err
		}},
		{"ShuffleStep", func() []byte {
			return wire.Encode(&ShuffleStep{Session: 2, Stage: 1, Data: []byte("step")})
		}, func(b []byte) error {
			p, err := decode[ShuffleStep](b)
			if err == nil && (p.Session != 2 || p.Stage != 1) {
				t.Error("fields mismatch")
			}
			return err
		}},
		{"Schedule", func() []byte {
			return wire.Encode(&Schedule{Keys: [][]byte{[]byte("k1")}, Sigs: [][]byte{[]byte("s1"), []byte("s2")}})
		}, func(b []byte) error {
			p, err := decode[Schedule](b)
			if err == nil && (len(p.Keys) != 1 || len(p.Sigs) != 2) {
				t.Error("fields mismatch")
			}
			return err
		}},
		{"ClientSubmit", func() []byte { return wire.Encode(&ClientSubmit{CT: []byte("ciphertext")}) },
			func(b []byte) error { _, err := DecodeClientSubmit(b); return err }},
		{"Inventory", func() []byte { return wire.Encode(&Inventory{Attempt: 3, Clients: []int32{0, 2}}) },
			func(b []byte) error {
				p, err := decode[Inventory](b)
				if err == nil && (p.Attempt != 3 || len(p.Hash) != 0) {
					t.Error("fields mismatch")
				}
				return err
			}},
		{"Inventory+commitment", func() []byte {
			return wire.Encode(&Inventory{Clients: []int32{1}, Hash: bytes.Repeat([]byte{7}, commitmentLen)})
		}, func(b []byte) error {
			p, err := decode[Inventory](b)
			if err == nil && (len(p.Hash) != commitmentLen || p.Hash[0] != 7) {
				t.Error("commitment mismatch")
			}
			return err
		}},
		{"Commit", func() []byte {
			return wire.Encode(&Commit{Attempt: 1, Hash: []byte("h")})
		}, func(b []byte) error {
			p, err := decode[Commit](b)
			if err == nil && string(p.Hash) != "h" {
				t.Error("commitment mismatch")
			}
			return err
		}},
		{"Share", func() []byte {
			return wire.Encode(&Share{Attempt: 1, CT: []byte("share"), Nonce: []byte("R")})
		}, func(b []byte) error {
			p, err := decode[Share](b)
			if err == nil && (string(p.CT) != "share" || string(p.Nonce) != "R") {
				t.Error("share or nonce mismatch")
			}
			return err
		}},
		{"Certify", func() []byte { return wire.Encode(&Certify{Attempt: 0, Sig: []byte("sig")}) },
			func(b []byte) error { _, err := decode[Certify](b); return err }},
		{"RoundOutput", func() []byte {
			return wire.Encode(&RoundOutput{Cleartext: []byte("clear"), Sigs: [][]byte{[]byte("s")}, Count: 9, Failed: true})
		}, func(b []byte) error {
			p, err := DecodeRoundOutput(b)
			if err == nil && (!p.Failed || p.Count != 9 || len(p.Sigs) != 1 || string(p.Sigs[0]) != "s") {
				t.Error("fields mismatch")
			}
			return err
		}},
		{"BlameStart", func() []byte { return wire.Encode(&BlameStart{Session: 7}) },
			func(b []byte) error { _, err := decode[BlameStart](b); return err }},
		{"TraceBits", func() []byte {
			return wire.Encode(&TraceBits{Session: 7, ClientBits: []byte{1, 0}, ServerBit: 1,
				Direct: []int32{0}, DirectBits: []byte{1}, Evidence: [][]byte{[]byte("ev")}})
		}, func(b []byte) error {
			p, err := decode[TraceBits](b)
			if err == nil && (p.ServerBit != 1 || len(p.Evidence) != 1) {
				t.Error("fields mismatch")
			}
			return err
		}},
		{"RebuttalRequest", func() []byte {
			return wire.Encode(&RebuttalRequest{Session: 7, AccRound: 3, AccBit: 99, ServerBits: []byte{0, 1}})
		}, func(b []byte) error {
			p, err := decode[RebuttalRequest](b)
			if err == nil && (p.AccRound != 3 || p.AccBit != 99) {
				t.Error("fields mismatch")
			}
			return err
		}},
		{"Rebuttal", func() []byte {
			return wire.Encode(&Rebuttal{Session: 7, ServerIdx: 2, Secret: []byte("k"), ProofC: []byte("c"), ProofZ: []byte("z")})
		}, func(b []byte) error { _, err := decode[Rebuttal](b); return err }},
		{"BlameDone", func() []byte {
			return wire.Encode(&BlameDone{Session: 7, Verdict: 2, Culprit: group.NodeID{1, 2}})
		}, func(b []byte) error {
			p, err := decode[BlameDone](b)
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

func TestInventoryCodecProperty(t *testing.T) {
	f := func(attempt int32, clients []int32, commit bool, fill byte) bool {
		p := &Inventory{Attempt: attempt, Clients: clients}
		if commit {
			p.Hash = bytes.Repeat([]byte{fill}, commitmentLen)
		}
		got, err := decode[Inventory](wire.Encode(p))
		if err != nil {
			return false
		}
		if got.Attempt != attempt || len(got.Clients) != len(clients) ||
			!bytes.Equal(got.Hash, p.Hash) {
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

// payloadRow is one known-answer vector: a fixed instance of a wire
// payload and the exact bytes it encodes to.
type payloadRow struct {
	name string
	p    wire.Payload
	hex  string
	// count is the offset of one length or list-count word (-1: the
	// payload has none).
	count  int
	decode func([]byte) (wire.Payload, error)
}

func vectorRow[T any, P interface {
	*T
	wire.Payload
}](name string, p P, hex string, count int) payloadRow {
	return payloadRow{name, p, hex, count, func(b []byte) (wire.Payload, error) {
		q, err := decode[T, P](b)
		if err != nil {
			return nil, err
		}
		return P(q), nil
	}}
}

// stored is a payload as the state store holds it: the record format
// byte, then the payload (wire.EncodeRecord).
type stored struct{ wire.Payload }

func (s stored) Fields(c *wire.Codec) {
	f := wire.RecordFormat
	c.U8(&f)
	s.Payload.Fields(c)
}

// recordRow is a vectorRow for a record the state store holds, read
// back by wire.DecodeRecord.
func recordRow[T any, P interface {
	*T
	wire.Payload
}](name string, p P, hex string, count int) payloadRow {
	return payloadRow{name, stored{p}, hex, count, func(b []byte) (wire.Payload, error) {
		q := P(new(T))
		if err := wire.DecodeRecord(b, q); err != nil {
			return nil, err
		}
		return stored{q}, nil
	}}
}

// vectorScheduleConfig and vectorSchedule are the schedule-state
// vector: three slots at lag 1, the layout rotated by a seed, slots 0
// and 2 opened and slot 1's request queued.
var vectorScheduleConfig = dcnet.Config{NumSlots: 3, DefaultOpenLen: 32, MaxSlotLen: 256, Lag: 1}

func vectorSchedule() *dcnet.Schedule {
	s, err := dcnet.NewSchedule(vectorScheduleConfig)
	if err != nil {
		panic(err)
	}
	s.Grow(0, []byte("vector"))
	for _, slots := range [][]int{{0, 2}, {1}} {
		ct := make([]byte, s.Layout(s.Round()).Len)
		for _, i := range slots {
			s.SetReqBit(ct, i, true)
		}
		if _, err := s.Advance(ct); err != nil {
			panic(err)
		}
	}
	return s
}

// payloadVectors holds a known answer for every wire payload, the
// message envelope, every record the state store holds and the other
// byte formats members must agree on: a change to any field's order,
// width or length prefix fails its named row. Row order is also the
// fuzz target's type byte.
func payloadVectors() []payloadRow {
	admit := []group.RosterMember{{PubKey: []byte("pub1"), PseuKey: []byte("pseu1"), Addr: "10.0.0.1:7500"}, {PubKey: []byte("pub2")}}
	remove := []group.NodeID{{9, 8, 7, 6, 5, 4, 3, 2}}
	return []payloadRow{
		vectorRow("ShuffleSubmit", &ShuffleSubmit{Session: 7, CT: []byte("onion")},
			"00000007000000056f6e696f6e", 4),
		vectorRow("ShuffleList", &ShuffleList{Session: 3, Clients: []int32{0, 2, -5}, CTs: [][]byte{{1, 2}, {}, {3}}},
			"00000003000000030000000000000002fffffffb00000003000000020102000000000000000103", 4),
		vectorRow("ShuffleStep", &ShuffleStep{Session: 2, Stage: 1, Data: []byte("step")},
			"00000002000000010000000473746570", 8),
		vectorRow("Schedule", &Schedule{Keys: [][]byte{[]byte("k1"), []byte("k2")}, Sigs: [][]byte{[]byte("s1")}},
			"00000002000000026b31000000026b3200000001000000027331", 0),
		vectorRow("ClientSubmit", &ClientSubmit{CT: []byte("ciphertext")},
			"0000000a63697068657274657874", 0),
		vectorRow("Inventory", &Inventory{Attempt: 1, Clients: []int32{0, 4}, Hash: bytes.Repeat([]byte{0xA1}, 32)},
			"00000001000000020000000000000004"+
				"00000020a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1", 4),
		vectorRow("Commit", &Commit{Attempt: 2, Hash: []byte("hash")},
			"000000020000000468617368", 4),
		vectorRow("Share", &Share{Attempt: 3, CT: []byte("share"), Nonce: []byte{2, 9}},
			"00000003000000057368617265000000020209", 4),
		vectorRow("Certify", &Certify{Attempt: 4, Sig: []byte("z")},
			"00000004000000017a", 4),
		vectorRow("RoundOutput", &RoundOutput{Cleartext: []byte("clear"), Sigs: [][]byte{[]byte("sig")}, Count: 9, Failed: true},
			"00000005636c656172000000010000000373696700000009"+"01", 9),
		vectorRow("BlameStart", &BlameStart{Session: 5},
			"00000005", -1),
		vectorRow("TraceBits", &TraceBits{Session: 6, ClientBits: []byte{1, 0, 1}, ServerBit: 1, Direct: []int32{2},
			DirectBits: []byte{1}, Evidence: [][]byte{[]byte("ev")}},
			"0000000600000003010001010000000100000002000000010100000001000000026576", 12),
		vectorRow("RebuttalRequest", &RebuttalRequest{Session: 7, AccRound: 1<<33 + 3, AccBit: 99, ServerBits: []byte{0, 1}},
			"00000007000000020000000300000063000000020001", 16),
		vectorRow("Rebuttal", &Rebuttal{Session: 8, ServerIdx: 2, Secret: []byte("dh"), ProofC: []byte("c"), ProofZ: []byte("zz")},
			"00000008000000020000000264680000000163000000027a7a", 8),
		vectorRow("BlameDone", &BlameDone{Session: 9, Verdict: 2, Culprit: group.NodeID{1, 2, 3, 4, 5, 6, 7, 8}},
			"00000009020102030405060708", -1),
		vectorRow("JoinRequest", &JoinRequest{Version: 10, Rejoin: true, PubKey: []byte("pub"), PseuKey: []byte("pseu"),
			Addr: "127.0.0.1:7500", SchedDigest: []byte("dig")},
			"000000000000000a010000000370756200000004707365750000000e3132372e302e302e313a3735303000000003646967", 9),
		vectorRow("RosterPropose", &RosterPropose{Version: 11, Admit: admit, Remove: remove},
			"000000000000000b0000000200000004707562310000000570736575310000000d31302e302e302e313a37353030"+
				"00000004707562320000000000000000000000010908070605040302", 8),
		vectorRow("RosterCert", &RosterCert{Version: 12, Sig: []byte("rsig")},
			"000000000000000c0000000472736967", 8),
		vectorRow("RosterUpdateMsg", &RosterUpdateMsg{Update: []byte("upd"), SchedDigest: []byte("sd")},
			"00000003757064000000027364", 0),
		vectorRow("JoinWelcome", &JoinWelcome{Version: 13, Digest: [32]byte{0xDD, 1}, Update: []byte("u"),
			RosterKeys: [][]byte{[]byte("r1"), []byte("r2")}, Expelled: []byte{0, 1}, SlotKeys: [][]byte{[]byte("sk")},
			Sched: []byte("sched"), BeaconHead: []byte("head")},
			"000000000000000ddd01000000000000000000000000000000000000000000000000000000000000"+
				"00000001750000000200000002723100000002723200000002000100000001000000027"+
				"36b0000000573636865640000000468656164", 45),
		recordRow("ServerSnapshot", &ServerSnapshot{Group: [32]byte{0xAB, 3}, Version: 14, PrevCount: 5, RosterDue: 1,
			BlameDue: 1, BlameHold: 40, CertKeys: [][]byte{[]byte("ck")}, CertSigs: [][]byte{[]byte("cs")},
			SlotKeys: [][]byte{[]byte("sk1"), []byte("sk2")}, Sched: []byte("st"), Expelled: []Expulsion{{Client: 3, Round: 77}},
			BlameSession: 2, Restarts: 1},
			"02ab03000000000000000000000000000000000000000000000000000000000000"+
				"000000000000000e00000005010100000000000000280000000100000002636b00000001000000026373"+
				"0000000200000003736b3100000003736b32"+
				"0000000273740000000100000003000000000000004d0000000200000001", 55),
		vectorRow("RosterUpdate", &group.RosterUpdate{Version: 15, PrevDigest: [32]byte{0xEE, 2}, Admit: admit, Remove: remove,
			Sigs: [][]byte{[]byte("g1"), []byte("g2")}},
			"000000000000000fee02000000000000000000000000000000000000000000000000000000000000"+
				"0000000200000004707562310000000570736575310000000d31302e302e302e313a37353030"+
				"0000000470756232000000000000000000000001090807060504030200000002000000026731000000026732", 40),
		vectorRow("Message", &Message{From: group.NodeID{'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'}, Type: MsgShare,
			Round: 42, Body: []byte("body"), Sig: []byte("sig")},
			"08000000000000002a616263646566676800000004626f647900000003736967", 17),
		recordRow("RosterRecord", &RosterUpdateMsg{Update: []byte("upd"), SchedDigest: []byte("sd")},
			"0200000003757064000000027364", 1),
		recordRow("RosterProposeRecord", &RosterPropose{Version: 11, Remove: remove},
			"02000000000000000b00000000000000010908070605040302", 9),
		recordRow("BeaconEntry", &beacon.Entry{Round: 16, Count: 5, Cleartext: beacon.Value{0xC0, 1}, Sig: []byte("sig"),
			Prev: beacon.Value{0xC1, 2}, Value: beacon.Value{0xC2, 3}},
			"020000000000000010"+"00000005"+
				"c001000000000000000000000000000000000000000000000000000000000000"+"00000003736967"+
				"c102000000000000000000000000000000000000000000000000000000000000"+
				"c203000000000000000000000000000000000000000000000000000000000000", 45),
		// The accusation's signature is fixed-length, sized by the
		// reader; this row's is 8 bytes.
		{"AccusationMsg", &AccusationMsg{Round: 1<<33 + 3, Slot: 2, Bit: 99, Sig: []byte("signatur")},
			"000000020000000300000002000000637369676e61747572", -1, func(b []byte) (wire.Payload, error) {
				a := &AccusationMsg{Sig: make([]byte, 8)}
				return a, wire.Decode(b, a)
			}},
		// RestoreSchedule names the schedule in its error, which costs an
		// allocation; FuzzRestoreSchedule bounds what an absurd count
		// makes it allocate.
		{"ScheduleState", vectorSchedule(),
			"000000000000000200000000000000010000000300000020000000000000000100000000000000000000000200000020" +
				"000000000000000000000001000000000001000000000000000000", -1,
			func(b []byte) (wire.Payload, error) { return dcnet.RestoreSchedule(vectorScheduleConfig, b) }},
	}
}

// TestPayloadVectors pins every payload's exact bytes and, per row,
// the decoder's strictness: the encoding decodes and re-encodes to
// itself, every strict prefix and one trailing byte are rejected, and
// a 0xFFFFFFFF length or count is rejected without allocating beyond
// the payload itself.
func TestPayloadVectors(t *testing.T) {
	for _, r := range payloadVectors() {
		t.Run(r.name, func(t *testing.T) {
			want, err := hex.DecodeString(r.hex)
			if err != nil {
				t.Fatal(err)
			}
			if got := wire.Encode(r.p); !bytes.Equal(got, want) {
				t.Fatalf("encoding changed:\n got %x\nwant %x", got, want)
			}
			p, err := r.decode(want)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if got := wire.Encode(p); !bytes.Equal(got, want) {
				t.Fatalf("decode then encode gave %x", got)
			}
			for cut := range want {
				if _, err := r.decode(want[:cut]); err == nil {
					t.Fatalf("prefix of %d bytes accepted", cut)
				}
			}
			if _, err := r.decode(append(append([]byte(nil), want...), 0)); err == nil {
				t.Fatal("trailing byte accepted")
			}
			if r.count < 0 {
				return
			}
			huge := append([]byte(nil), want...)
			copy(huge[r.count:], []byte{0xFF, 0xFF, 0xFF, 0xFF})
			if _, err := r.decode(huge); err == nil {
				t.Fatalf("count 0xFFFFFFFF at %d accepted", r.count)
			}
			if n := testing.AllocsPerRun(20, func() { _, _ = r.decode(huge) }); n > 1 {
				t.Fatalf("count 0xFFFFFFFF at %d: %.0f allocations", r.count, n)
			}
		})
	}
}

// shareSeeds are Share encodings whose nonce field peers feed straight
// into a group-element decoder.
func shareSeeds() [][]byte {
	full := wire.Encode(&Share{Attempt: 2, CT: []byte("ciphertext share"), Nonce: bytes.Repeat([]byte{2}, 33)})
	return [][]byte{
		full,
		wire.Encode(&Share{CT: []byte("ct"), Nonce: []byte{3}}), // short nonce
		wire.Encode(&Share{}),                   // every field empty
		full[:len(full)-33-4],                   // the nonce field missing altogether
		full[:len(full)-1],                      // truncated nonce
		append(append([]byte(nil), full...), 0), // trailing byte
		{0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF},    // absurd length prefix
	}
}

// inventorySeeds are Inventory encodings around its commitment bound.
func inventorySeeds() [][]byte {
	h := bytes.Repeat([]byte{0xA1}, commitmentLen)
	full := wire.Encode(&Inventory{Attempt: 0, Clients: []int32{0, 2, 5}, Hash: h})
	// The layout before the round certificate became the beacon entry
	// carried a second, beacon commitment after the first.
	twoCommits := append(append([]byte(nil), full...), append([]byte{0, 0, 0, 32}, h...)...)
	return [][]byte{
		full,
		wire.Encode(&Inventory{Attempt: 1, Clients: []int32{4}}),  // explicit path: no commitment
		wire.Encode(&Inventory{Clients: []int32{4}, Hash: h[:1]}), // one-byte commitment
		wire.Encode(&Inventory{Hash: h[:commitmentLen-1]}),        // short commitment
		wire.Encode(&Inventory{Hash: append(h, 0)}),               // long commitment
		twoCommits, // a beacon commitment after the share's
		append(append([]byte(nil), full...), 0, 0, 0, 0),                // an empty beacon commitment after it
		full[:len(full)-commitmentLen-4],                                // pre-merge body: fields missing
		append(append([]byte(nil), full...), 0),                         // trailing byte
		{0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF},                // absurd commitment length
		{0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // absurd client count
	}
}

// shuffleListSeeds are encodings of the one list both shuffle sessions
// exchange.
func shuffleListSeeds() [][]byte {
	full := wire.Encode(&ShuffleList{Session: 3, Clients: []int32{0, 2, 5},
		CTs: [][]byte{bytes.Repeat([]byte{2}, 66), bytes.Repeat([]byte{3}, 66), bytes.Repeat([]byte{4}, 66)}})
	return [][]byte{
		full,
		wire.Encode(&ShuffleList{}), // scheduling session, nobody submitted
		wire.Encode(&ShuffleList{Session: 1, Clients: []int32{4}, CTs: [][]byte{{}}}), // zero-length CT
		wire.Encode(&ShuffleList{Clients: []int32{1, 2}, CTs: [][]byte{{9}}}),         // shape mismatch: fewer CTs
		wire.Encode(&ShuffleList{Clients: []int32{1}, CTs: [][]byte{{9}, {8}}}),       // shape mismatch: more CTs
		full[:len(full)-1],                                           // truncated
		append(append([]byte(nil), full...), 0),                      // trailing byte
		{0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF},                         // absurd client count
		{0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF},             // absurd CT count
		{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF}, // absurd CT length
	}
}

// checkPayloadDecode is the property every payload fuzz target holds:
// decoding never panics, an accepted encoding is canonical (it
// re-encodes to the same bytes), and the decode-time checks hold: an
// Inventory commitment only at exactly digest length, a ShuffleList
// with one ciphertext per client.
func checkPayloadDecode(t *testing.T, r payloadRow, data []byte) {
	p, err := r.decode(data)
	if err != nil {
		return
	}
	if got := wire.Encode(p); !bytes.Equal(got, data) {
		t.Fatalf("accepted %s re-encodes differently: %x vs %x", r.name, got, data)
	}
	switch p := p.(type) {
	case *Inventory:
		if len(p.Hash) != 0 && len(p.Hash) != commitmentLen {
			t.Fatalf("accepted commitment length %d", len(p.Hash))
		}
	case *ShuffleList:
		if len(p.Clients) != len(p.CTs) {
			t.Fatalf("accepted %d clients with %d ciphertexts", len(p.Clients), len(p.CTs))
		}
	}
}

// fuzzOnePayload fuzzes the decoder of one payloadVectors row, seeded
// with its vector and seeds.
func fuzzOnePayload(f *testing.F, name string, seeds [][]byte) {
	var row payloadRow
	for _, r := range payloadVectors() {
		if r.name == name {
			row = r
		}
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkPayloadDecode(t, row, data) })
}

// FuzzDecodeShare, FuzzDecodeInventory and FuzzDecodeShuffleList aim
// the payload property at the three decoders peers reach most: the
// Share nonce, the Inventory commitment bound and the shuffle list
// shape.
func FuzzDecodeShare(f *testing.F)       { fuzzOnePayload(f, "Share", shareSeeds()) }
func FuzzDecodeInventory(f *testing.F)   { fuzzOnePayload(f, "Inventory", inventorySeeds()) }
func FuzzDecodeShuffleList(f *testing.F) { fuzzOnePayload(f, "ShuffleList", shuffleListSeeds()) }

// FuzzDecodePayloads exercises every payload decoder: the first input
// byte picks the payload type (the row of payloadVectors), the rest is
// its encoding, checked by checkPayloadDecode.
func FuzzDecodePayloads(f *testing.F) {
	rows := payloadVectors()
	typ := make(map[string]byte, len(rows))
	for i, r := range rows {
		typ[r.name] = byte(i)
	}
	add := func(name string, b []byte) { f.Add(append([]byte{typ[name]}, b...)) }
	for _, r := range rows {
		b, _ := hex.DecodeString(r.hex)
		add(r.name, b)
	}
	for _, s := range shareSeeds() {
		add("Share", s)
	}
	for _, s := range inventorySeeds() {
		add("Inventory", s)
	}
	for _, s := range shuffleListSeeds() {
		add("ShuffleList", s)
	}

	// A bool byte other than 0 or 1 would decode as true and re-encode
	// as 1: both must be rejected.
	ro := wire.Encode(&RoundOutput{Cleartext: []byte("x"), Count: 1})
	ro[len(ro)-1] = 2 // the Failed byte, the last
	add("RoundOutput", ro)
	jr := wire.Encode(&JoinRequest{Version: 1})
	jr[8] = 2 // the Rejoin byte, after the version
	add("JoinRequest", jr)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		checkPayloadDecode(t, rows[int(data[0])%len(rows)], data[1:])
	})
}

// TestPayloadCodecAllocs pins the codec's allocations: an encode
// allocates once, for its output, and a decode allocates the payload
// and its list slices and nothing for the codec itself.
func TestPayloadCodecAllocs(t *testing.T) {
	share := &Share{Attempt: 1, CT: make([]byte, 1024), Nonce: make([]byte, 33)}
	ro := &RoundOutput{Cleartext: make([]byte, 1024), Sigs: [][]byte{make([]byte, 64)}, Count: 3}
	inv := &Inventory{Clients: []int32{0, 1, 2, 3}, Hash: make([]byte, commitmentLen)}
	for _, c := range []struct {
		name     string
		p        wire.Payload
		decode   func([]byte) error
		decAlloc float64
	}{
		{"Share", share, func(b []byte) error { _, err := decode[Share](b); return err }, 1},
		{"RoundOutput", ro, func(b []byte) error { _, err := DecodeRoundOutput(b); return err }, 2},
		{"Inventory", inv, func(b []byte) error { _, err := decode[Inventory](b); return err }, 2},
	} {
		if n := testing.AllocsPerRun(100, func() { _ = wire.Encode(c.p) }); n != 1 {
			t.Errorf("%s: encode allocated %.0f times, want 1", c.name, n)
		}
		b := wire.Encode(c.p)
		if n := testing.AllocsPerRun(100, func() {
			if err := c.decode(b); err != nil {
				t.Fatal(err)
			}
		}); n != c.decAlloc {
			t.Errorf("%s: decode allocated %.0f times, want %.0f", c.name, n, c.decAlloc)
		}
	}
}
