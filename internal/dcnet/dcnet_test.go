package dcnet

import (
	"bytes"
	"testing"
	"testing/quick"

	"dissent/internal/crypto"
)

func testConfig(slots int) Config {
	return Config{NumSlots: slots, DefaultOpenLen: 64, MaxSlotLen: 4096}
}

// buildPairSeeds returns nClients x nServers pairwise seeds, as both
// sides would derive them from DH.
func buildPairSeeds(n, m int) [][][]byte {
	seeds := make([][][]byte, n)
	for i := range seeds {
		seeds[i] = make([][]byte, m)
		for j := range seeds[i] {
			seeds[i][j] = crypto.Hash("test-pair", crypto.HashUint64(uint64(i)), crypto.HashUint64(uint64(j)))
		}
	}
	return seeds
}

// runRound simulates one full DC-net combine: every client ciphertext
// XORed with every server pad must reveal the XOR of the messages.
func runRound(t *testing.T, maker crypto.PRNGMaker, seeds [][][]byte, round uint64, msgs [][]byte, include []bool) []byte {
	t.Helper()
	n := len(seeds)
	m := len(seeds[0])
	length := len(msgs[0])
	pad := NewPad(maker)

	out := make([]byte, length)
	for i := 0; i < n; i++ {
		if !include[i] {
			continue
		}
		ct := pad.ClientCiphertext(seeds[i], round, msgs[i])
		crypto.XORBytes(out, ct)
	}
	for j := 0; j < m; j++ {
		var clientSeeds [][]byte
		for i := 0; i < n; i++ {
			if include[i] {
				clientSeeds = append(clientSeeds, seeds[i][j])
			}
		}
		crypto.XORBytes(out, pad.ServerPad(clientSeeds, round, length))
	}
	return out
}

func TestDCNetCancellation(t *testing.T) {
	for name, maker := range map[string]crypto.PRNGMaker{"aes": crypto.NewAESPRNG, "fast": crypto.NewFastPRNG} {
		t.Run(name, func(t *testing.T) {
			const n, m, length = 5, 3, 200
			seeds := buildPairSeeds(n, m)
			msgs := make([][]byte, n)
			for i := range msgs {
				msgs[i] = make([]byte, length)
			}
			// Client 2 transmits in bytes [40:80).
			want := []byte("the quick brown fox jumps over the dog!")
			copy(msgs[2][40:], want)
			include := []bool{true, true, true, true, true}
			out := runRound(t, maker, seeds, 7, msgs, include)
			if !bytes.Equal(out[40:40+len(want)], want) {
				t.Error("message not revealed after combine")
			}
			if !allZero(out[:40]) || !allZero(out[40+len(want):]) {
				t.Error("pads did not cancel outside the message slot")
			}
		})
	}
}

func TestDCNetToleratesOfflineClients(t *testing.T) {
	// The crux of §3.6: when a client never submits, the servers just
	// exclude its seeds; remaining streams still cancel.
	const n, m, length = 6, 3, 128
	seeds := buildPairSeeds(n, m)
	msgs := make([][]byte, n)
	for i := range msgs {
		msgs[i] = make([]byte, length)
	}
	copy(msgs[0][10:], "hello")
	include := []bool{true, false, true, false, true, true} // clients 1, 3 offline
	out := runRound(t, crypto.NewAESPRNG, seeds, 3, msgs, include)
	if string(out[10:15]) != "hello" {
		t.Error("message lost when other clients dropped")
	}
	if !allZero(out[15:]) {
		t.Error("residual noise from offline client handling")
	}
}

func TestDCNetMismatchedInclusionGarbles(t *testing.T) {
	// If servers include a client that never sent a ciphertext, the
	// round output is garbled — the detection signal for inventory bugs.
	const n, m, length = 3, 2, 64
	seeds := buildPairSeeds(n, m)
	pad := NewPad(crypto.NewAESPRNG)
	msgs := make([][]byte, n)
	for i := range msgs {
		msgs[i] = make([]byte, length)
	}
	out := make([]byte, length)
	// Only clients 0 and 1 submit...
	for i := 0; i < 2; i++ {
		crypto.XORBytes(out, pad.ClientCiphertext(seeds[i], 0, msgs[i]))
	}
	// ...but servers include all three.
	for j := 0; j < m; j++ {
		crypto.XORBytes(out, pad.ServerPad([][]byte{seeds[0][j], seeds[1][j], seeds[2][j]}, 0, length))
	}
	if allZero(out) {
		t.Error("mismatched inclusion should garble the output")
	}
}

func TestRoundSeedsDiffer(t *testing.T) {
	s := crypto.Hash("pair", []byte("x"))
	if bytes.Equal(RoundSeed(s, 1), RoundSeed(s, 2)) {
		t.Error("round seeds repeat across rounds")
	}
}

func TestStreamBitMatchesStream(t *testing.T) {
	pad := NewPad(crypto.NewAESPRNG)
	seed := crypto.Hash("pair", []byte("bit"))
	const length = 64
	buf := make([]byte, length)
	pad.XORStream(buf, seed, 5, length)
	for _, bit := range []int{0, 1, 7, 8, 63, 100, length*8 - 1} {
		want := (buf[bit/8] >> (uint(bit) % 8)) & 1
		if got := pad.StreamBit(seed, 5, bit); got != want {
			t.Errorf("StreamBit(%d) = %d, want %d", bit, got, want)
		}
	}
}

func TestBitHelper(t *testing.T) {
	buf := []byte{0b0000_0101, 0b1000_0000}
	cases := []struct {
		idx  int
		want byte
	}{{0, 1}, {1, 0}, {2, 1}, {3, 0}, {15, 1}, {8, 0}}
	for _, c := range cases {
		if got := Bit(buf, c.idx); got != c.want {
			t.Errorf("Bit(%d) = %d, want %d", c.idx, got, c.want)
		}
	}
}

func TestSlotEncodeDecodeRoundTrip(t *testing.T) {
	buf := make([]byte, 128)
	p := SlotPayload{NextLen: 256, ShuffleReq: 0x3C, Data: []byte("payload data")}
	if err := EncodeSlot(buf, p, nil); err != nil {
		t.Fatal(err)
	}
	got, idle, err := DecodeSlot(buf)
	if err != nil || idle {
		t.Fatalf("DecodeSlot: err=%v idle=%v", err, idle)
	}
	if got.NextLen != p.NextLen || got.ShuffleReq != p.ShuffleReq || !bytes.Equal(got.Data, p.Data) {
		t.Errorf("round-trip mismatch: %+v vs %+v", got, p)
	}
}

func TestSlotIdleDetection(t *testing.T) {
	buf := make([]byte, MinSlotLen)
	_, idle, err := DecodeSlot(buf)
	if err != nil || !idle {
		t.Errorf("all-zero slot: idle=%v err=%v, want idle=true", idle, err)
	}
}

func TestSlotEncodeErrors(t *testing.T) {
	if err := EncodeSlot(make([]byte, MinSlotLen-1), SlotPayload{}, nil); err == nil {
		t.Error("short slot accepted")
	}
	buf := make([]byte, MinSlotLen+4)
	if err := EncodeSlot(buf, SlotPayload{Data: make([]byte, 5)}, nil); err == nil {
		t.Error("oversized data accepted")
	}
	if err := EncodeSlot(buf, SlotPayload{NextLen: -1}, nil); err == nil {
		t.Error("negative NextLen accepted")
	}
}

func TestSlotCapacity(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {MinSlotLen - 1, 0}, {MinSlotLen, 0}, {MinSlotLen + 10, 10},
	}
	for _, c := range cases {
		if got := SlotCapacity(c.n); got != c.want {
			t.Errorf("SlotCapacity(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	if got := SlotLenFor(100); got != MinSlotLen+100 {
		t.Errorf("SlotLenFor(100) = %d", got)
	}
}

func TestSlotPayloadProperty(t *testing.T) {
	f := func(data []byte, nextLen uint16, req byte) bool {
		buf := make([]byte, SlotLenFor(len(data))+3)
		p := SlotPayload{NextLen: int(nextLen), ShuffleReq: req, Data: data}
		if err := EncodeSlot(buf, p, nil); err != nil {
			return false
		}
		got, idle, err := DecodeSlot(buf)
		if err != nil || idle {
			return false
		}
		return got.NextLen == int(nextLen) && got.ShuffleReq == req && bytes.Equal(got.Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSlotMaskUnpredictable(t *testing.T) {
	// Two encodings of the same payload must differ (fresh seeds) —
	// the property that guarantees witness bits under disruption.
	p := SlotPayload{Data: []byte("same payload")}
	a := make([]byte, 64)
	b := make([]byte, 64)
	EncodeSlot(a, p, nil)
	EncodeSlot(b, p, nil)
	if bytes.Equal(a, b) {
		t.Error("identical encodings for identical payloads")
	}
}

func TestDCNetCancellationProperty(t *testing.T) {
	// Property: for random pair seeds, message placements, and online
	// subsets, the combine always reveals exactly the XOR of included
	// clients' messages.
	f := func(seedByte byte, lengthSeed uint8, onlineMask uint16) bool {
		const n, m = 8, 3
		length := 32 + int(lengthSeed)%96
		seeds := make([][][]byte, n)
		for i := range seeds {
			seeds[i] = make([][]byte, m)
			for j := range seeds[i] {
				seeds[i][j] = crypto.Hash("prop", []byte{seedByte, byte(i), byte(j)})
			}
		}
		pad := NewPad(crypto.NewAESPRNG)
		msgs := make([][]byte, n)
		include := make([]bool, n)
		want := make([]byte, length)
		for i := range msgs {
			msgs[i] = make([]byte, length)
			include[i] = onlineMask&(1<<uint(i)) != 0
			if include[i] {
				stream := crypto.NewAESPRNG(crypto.Hash("msg", []byte{seedByte, byte(i)}))
				stream.Read(msgs[i])
				crypto.XORBytes(want, msgs[i])
			}
		}
		out := make([]byte, length)
		for i := 0; i < n; i++ {
			if !include[i] {
				continue
			}
			crypto.XORBytes(out, pad.ClientCiphertext(seeds[i], 9, msgs[i]))
		}
		for j := 0; j < m; j++ {
			var cs [][]byte
			for i := 0; i < n; i++ {
				if include[i] {
					cs = append(cs, seeds[i][j])
				}
			}
			crypto.XORBytes(out, pad.ServerPad(cs, 9, length))
		}
		return bytes.Equal(out, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestScheduleLayoutContiguous(t *testing.T) {
	// Property: slot ranges tile the vector exactly once after the
	// request-bit region, in slot order, for random open/close states.
	s := mustSchedule(t, testConfig(6))
	buf := make([]byte, headLayout(s).Len)
	for i := 0; i < 6; i += 2 {
		s.SetReqBit(buf, i, true)
	}
	if _, err := s.Advance(buf); err != nil {
		t.Fatal(err)
	}
	off := s.reqBytes()
	for i := 0; i < 6; i++ {
		gotOff, gotLen := headLayout(s).SlotRange(i)
		if gotOff != off {
			t.Fatalf("slot %d offset %d, want %d", i, gotOff, off)
		}
		off += gotLen
	}
	if off != headLayout(s).Len {
		t.Fatalf("slots cover %d bytes, vector is %d", off, headLayout(s).Len)
	}
}
