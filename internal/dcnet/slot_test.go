package dcnet

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// slotTestLens are the slot shapes worth pinning: the smallest slot, a
// microblog post, a multi-block slot, and a 128 KiB bulk slot whose
// body ends mid-AES-block.
var slotTestLens = []int{MinSlotLen, 137, 4 << 10, 128<<10 + 25}

func TestSlotRoundTripAcrossLengths(t *testing.T) {
	for _, slotLen := range slotTestLens {
		slotLen := slotLen
		t.Run(fmt.Sprint(slotLen), func(t *testing.T) {
			buf := make([]byte, slotLen)
			f := func(seed int64, nextLen uint32, req byte) bool {
				rng := rand.New(rand.NewSource(seed))
				data := make([]byte, rng.Intn(SlotCapacity(slotLen)+1))
				rng.Read(data)
				p := SlotPayload{NextLen: int(nextLen), ShuffleReq: req, Data: data}
				if err := EncodeSlot(buf, p, rng); err != nil {
					t.Log(err)
					return false
				}
				got, idle, err := DecodeSlot(buf)
				if err != nil || idle {
					t.Logf("DecodeSlot: idle=%v err=%v", idle, err)
					return false
				}
				return got.NextLen == p.NextLen && got.ShuffleReq == req && bytes.Equal(got.Data, data)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestSlotMaskBitFlipIsLocal pins the property §3.9 blame relies on:
// the mask is a stream cipher, so a disruptor flipping bit i of a
// masked body flips exactly plaintext bit i — the witness bit the
// victim accuses with is the bit that was attacked.
func TestSlotMaskBitFlipIsLocal(t *testing.T) {
	const slotLen = 4 << 10
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, SlotCapacity(slotLen))
	rng.Read(data)
	buf := make([]byte, slotLen)
	if err := EncodeSlot(buf, SlotPayload{NextLen: slotLen, Data: data}, rng); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		bit := rng.Intn(len(data) * 8)
		flipped := append([]byte(nil), buf...)
		flipped[MinSlotLen+bit/8] ^= 1 << (bit % 8)
		got, idle, err := DecodeSlot(flipped)
		if err != nil || idle {
			t.Fatalf("bit %d: idle=%v err=%v", bit, idle, err)
		}
		want := append([]byte(nil), data...)
		want[bit/8] ^= 1 << (bit % 8)
		if !bytes.Equal(got.Data, want) {
			t.Fatalf("flipping masked bit %d changed more than plaintext bit %d", bit, bit)
		}
	}
}

// TestSlotIdleSkipsCipher: an idle slot is recognised before any key
// schedule runs, so silent members cost every decoder a scan only. The
// mask's setup is its only allocation, so zero allocations shows it.
func TestSlotIdleSkipsCipher(t *testing.T) {
	for _, slotLen := range slotTestLens {
		buf := make([]byte, slotLen)
		if avg := testing.AllocsPerRun(20, func() {
			if p, idle, err := DecodeSlot(buf); p != nil || !idle || err != nil {
				t.Fatalf("all-zero slot of %d bytes: p=%v idle=%v err=%v", slotLen, p, idle, err)
			}
		}); avg != 0 {
			t.Errorf("idle slot of %d bytes allocates %.1f times per decode, want 0", slotLen, avg)
		}
	}
}

// FuzzDecodeSlot feeds arbitrary slot regions — what a disruptor can
// make of a round's cleartext — to the decoder: it must return a
// payload that fits the slot, an idle verdict or an error, never panic.
func FuzzDecodeSlot(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, MinSlotLen-1))
	f.Add(make([]byte, MinSlotLen))
	f.Add(bytes.Repeat([]byte{0xFF}, MinSlotLen))
	f.Add(bytes.Repeat([]byte{0xA5}, 137))
	valid := make([]byte, 137)
	if err := EncodeSlot(valid, SlotPayload{NextLen: 137, Data: []byte("seed corpus")}, rand.New(rand.NewSource(1))); err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Fuzz(func(t *testing.T, buf []byte) {
		p, idle, err := DecodeSlot(buf)
		switch {
		case err != nil:
			if p != nil || idle {
				t.Fatalf("error %v alongside p=%v idle=%v", err, p, idle)
			}
		case idle:
			if p != nil || !allZero(buf) {
				t.Fatalf("idle verdict for a non-zero slot or with a payload")
			}
		default:
			if len(p.Data) > SlotCapacity(len(buf)) {
				t.Fatalf("decoded %d data bytes from a slot with capacity %d", len(p.Data), SlotCapacity(len(buf)))
			}
		}
	})
}
