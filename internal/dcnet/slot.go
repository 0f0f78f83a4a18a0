package dcnet

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Slot wire layout (within one open message slot of length L):
//
//	[ 0:16)  seed   — random per-round mask seed, in the clear
//	[16: L)  body   — plaintext XOR AES-128-CTR(key = seed, IV = 0)
//
// body layout:
//
//	[0:4)  NextLen   — requested slot length for round r+1 (0 closes)
//	[4:5)  ShuffleReq — k-bit shuffle-request field (nonzero requests
//	                    an accusation shuffle, §3.9)
//	[5:9)  DataLen   — bytes of application data following
//	[9:9+DataLen) Data
//	remainder: zero padding (masked)
//
// The random seed makes every cleartext bit unpredictable before the
// round completes — the OAEP-like padding of §3.9 — so a disruptor's
// bit flip lands on a 0 with probability 1/2, creating a witness bit.
const (
	// SeedLen is the mask seed size.
	SeedLen = 16
	// slotHeaderLen is NextLen(4) + ShuffleReq(1) + DataLen(4).
	slotHeaderLen = 9
	// MinSlotLen is the smallest usable open-slot length.
	MinSlotLen = SeedLen + slotHeaderLen
)

// SlotCapacity returns the application-data capacity of a slot of
// length n (0 if below the minimum).
func SlotCapacity(n int) int {
	if n < MinSlotLen {
		return 0
	}
	return n - MinSlotLen
}

// SlotLenFor returns the smallest slot length able to carry dataLen
// bytes of application data.
func SlotLenFor(dataLen int) int { return MinSlotLen + dataLen }

// SlotPayload is the decoded content of one open slot.
type SlotPayload struct {
	// NextLen is the owner's requested slot length for the next round;
	// 0 closes the slot.
	NextLen int
	// ShuffleReq is the k-bit shuffle-request field; any nonzero value
	// asks the servers to run an accusation shuffle.
	ShuffleReq byte
	// Data is the application payload.
	Data []byte
}

// EncodeSlot writes payload into buf (a full slot region, len(buf) =
// the slot's current length), masking the body with a fresh random
// seed. rnd may be nil for crypto/rand.
func EncodeSlot(buf []byte, p SlotPayload, rnd io.Reader) error {
	if len(buf) < MinSlotLen {
		return fmt.Errorf("dcnet: slot length %d below minimum %d", len(buf), MinSlotLen)
	}
	if len(p.Data) > SlotCapacity(len(buf)) {
		return fmt.Errorf("dcnet: %d bytes of data exceed slot capacity %d",
			len(p.Data), SlotCapacity(len(buf)))
	}
	if p.NextLen < 0 || p.NextLen >= 1<<32 {
		return errors.New("dcnet: NextLen out of range")
	}
	if rnd == nil {
		rnd = rand.Reader
	}
	if _, err := io.ReadFull(rnd, buf[:SeedLen]); err != nil {
		return err
	}
	// An all-zero seed would collide with the idle-slot encoding;
	// probability 2^-128, but force a bit anyway.
	if allZero(buf[:SeedLen]) {
		buf[0] = 1
	}
	body := buf[SeedLen:]
	binary.BigEndian.PutUint32(body[0:4], uint32(p.NextLen))
	body[4] = p.ShuffleReq
	binary.BigEndian.PutUint32(body[5:9], uint32(len(p.Data)))
	n := copy(body[slotHeaderLen:], p.Data)
	// Only the padding tail needs zeroing — the header and data regions
	// were just written in full.
	clear(body[slotHeaderLen+n:])
	slotMask(buf[:SeedLen]).XORKeyStream(body, body)
	return nil
}

// slotMask returns the OAEP-like slot body mask: the AES-128-CTR
// keystream keyed directly by the slot's seed, from a zero IV. The seed
// is fresh, uniform and keys nothing else, so it needs no derivation
// step and no nonce, and every member unmasks every open slot of every
// round at hardware AES speed. The price is the key schedule and the
// counter state: two small allocations per slot.
func slotMask(seed []byte) cipher.Stream {
	blk, err := aes.NewCipher(seed)
	if err != nil {
		panic(err) // len(seed) != SeedLen: a bug in this file
	}
	return cipher.NewCTR(blk, slotMaskIV[:])
}

// slotMaskIV is the all-zero counter every slot mask starts from (a
// local array would escape through cipher.NewCTR and cost a third
// allocation per slot). Never written.
var slotMaskIV [aes.BlockSize]byte

// DecodeSlot parses a slot region from a round's cleartext output.
// idle is true when the region is all zero — the owner transmitted
// nothing (offline or silent). An error means the region was garbled,
// e.g. by a disruptor. buf is not modified; the only allocations are
// the returned payload and its data copy.
func DecodeSlot(buf []byte) (p *SlotPayload, idle bool, err error) {
	if len(buf) < MinSlotLen {
		return nil, false, fmt.Errorf("dcnet: slot too short: %d", len(buf))
	}
	if allZero(buf) {
		return nil, true, nil
	}
	// One stream unmasks the header, then — once the length it declares
	// is known to fit — continues into the data.
	mask := slotMask(buf[:SeedLen])
	var hdr [slotHeaderLen]byte
	mask.XORKeyStream(hdr[:], buf[SeedLen:MinSlotLen])
	dataLen := int(binary.BigEndian.Uint32(hdr[5:9]))
	if dataLen < 0 || dataLen > len(buf)-MinSlotLen {
		return nil, false, fmt.Errorf("dcnet: slot data length %d exceeds body", dataLen)
	}
	data := make([]byte, dataLen)
	mask.XORKeyStream(data, buf[MinSlotLen:MinSlotLen+dataLen])
	return &SlotPayload{
		NextLen:    int(binary.BigEndian.Uint32(hdr[0:4])),
		ShuffleReq: hdr[4],
		Data:       data,
	}, false, nil
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
