package transport

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"dissent/internal/core"
)

// fuzzSeedFrames builds the seed corpus for FuzzReadFrame: a
// well-formed frame, the same message without its session tag, plus
// the interesting malformed shapes (truncations, size-bound
// violations, tag/size mismatches). go test runs the target over these
// seeds on every CI run, so the decoder's error paths stay exercised
// even outside fuzzing sessions.
func fuzzSeedFrames() [][]byte {
	var from [8]byte
	copy(from[:], "fuzznode")
	msg := &core.Message{From: from, Type: core.MsgClientSubmit, Round: 99,
		Body: []byte("fuzz seed body"), Sig: []byte("fuzz seed signature")}
	var sid SessionID
	copy(sid[:], "fuzz-session-fuzz-session-fuzz-s")

	var tagged bytes.Buffer
	WriteFrameSession(&tagged, sid, msg)

	oversize := []byte{0x7F, 0xFF, 0xFF, 0xFF}
	zero := []byte{0, 0, 0, 0}
	// Tagged bit set but size too small to hold the 32-byte tag.
	shortTag := []byte{0x80, 0, 0, 0x10, 1, 2, 3, 4}
	// Valid header, truncated body.
	truncated := append([]byte{0x80, 0, 0, 0x40}, []byte("only a few bytes")...)
	// Tagged frame whose inner message is garbage.
	garbageBody := make([]byte, 4+32+5)
	binary.BigEndian.PutUint32(garbageBody[:4], uint32(32+5)|frameTagged)
	copy(garbageBody[36:], "junk!")
	// Claims the largest frame allowed, delivers ten bytes: the reader
	// must not reserve what the length word merely promises.
	hugeClaim := append(binary.BigEndian.AppendUint32(nil, maxFrame|frameTagged), "ten bytes!"...)

	return [][]byte{
		untaggedFrame(msg),
		tagged.Bytes(),
		oversize,
		zero,
		shortTag,
		truncated,
		garbageBody,
		hugeClaim,
		{},
		{0, 0},
	}
}

// FuzzReadFrame exercises the frame decoder: it must never panic, must
// refuse every input whose length word lacks the tag bit, must not
// allocate much more than the bytes it was actually given (whatever the
// length word claims), and every frame it accepts must re-encode and
// re-decode to the same message and session tag.
func FuzzReadFrame(f *testing.F) {
	for _, seed := range fuzzSeedFrames() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sid, tagged, msg, err := ReadFrameSession(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// Background allocation in the test process is noise far below
		// the 64 MiB a trusted length word would cost.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(frameReadAhead+4*len(data)+1<<20); got > limit {
			t.Fatalf("reading a %d-byte input allocated %d bytes, want <= %d", len(data), got, limit)
		}
		if err != nil {
			return
		}
		if !tagged || data[0]&0x80 == 0 {
			t.Fatalf("untagged frame accepted (tagged=%v, first byte %#x)", tagged, data[0])
		}
		var buf bytes.Buffer
		if err := WriteFrameSession(&buf, sid, msg); err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		sid2, _, msg2, err := ReadFrameSession(&buf)
		if err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if sid2 != sid || msg2.Type != msg.Type || msg2.Round != msg.Round ||
			msg2.From != msg.From || !bytes.Equal(msg2.Body, msg.Body) {
			t.Fatalf("round trip diverged: %+v vs %+v", msg, msg2)
		}
	})
}
