package wire

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

// fields is a payload built from one field list, for exercising the
// codec's primitives in every mode.
type fields func(c *Codec)

func (f fields) Fields(c *Codec) { f(c) }

// prims carries one field of every kind the codec has.
type prims struct {
	u8   byte
	ok   bool
	u32  uint32
	i32  int32
	u64  uint64
	id   [8]byte
	b    []byte
	s    string
	bs   [][]byte
	is   []int32
	u64s []uint64
}

func (p *prims) Fields(c *Codec) {
	c.U8(&p.u8)
	c.Bool(&p.ok)
	c.U32(&p.u32)
	c.I32(&p.i32)
	c.U64(&p.u64)
	c.Fixed(p.id[:])
	c.Bytes(&p.b)
	c.String(&p.s)
	c.ByteSlices(&p.bs)
	c.Int32s(&p.is)
	List(c, &p.u64s, 4, 8, (*Codec).U64)
}

func samplePrims() *prims {
	return &prims{u8: 7, ok: true, u32: 1 << 30, i32: -2, u64: 1 << 60, id: [8]byte{1, 2, 3, 4, 5, 6, 7, 8},
		b: []byte("hello"), s: "addr", bs: [][]byte{[]byte("a"), nil, []byte("ccc")}, is: []int32{3, -1, 99},
		u64s: []uint64{1 << 40, 9}}
}

func TestRoundTrip(t *testing.T) {
	in := samplePrims()
	enc := Encode(in)
	if len(enc) != Size(in) || cap(enc) != len(enc) {
		t.Fatalf("Encode gave len %d cap %d, Size %d", len(enc), cap(enc), Size(in))
	}
	if !bytes.Equal(Append([]byte{0xAA}, in)[1:], enc) {
		t.Fatal("Append and Encode disagree")
	}
	var out prims
	if err := Decode(enc, &out); err != nil {
		t.Fatal(err)
	}
	if out.u8 != 7 || !out.ok || out.u32 != 1<<30 || out.i32 != -2 || out.u64 != 1<<60 || out.id != in.id ||
		string(out.b) != "hello" || out.s != "addr" {
		t.Fatalf("scalar fields: %+v", out)
	}
	if len(out.bs) != 3 || len(out.bs[1]) != 0 || string(out.bs[2]) != "ccc" {
		t.Fatalf("ByteSlices = %q", out.bs)
	}
	if len(out.is) != 3 || out.is[1] != -1 || out.is[2] != 99 {
		t.Fatalf("Int32s = %v", out.is)
	}
	if len(out.u64s) != 2 || out.u64s[0] != 1<<40 {
		t.Fatalf("List = %v", out.u64s)
	}
	if !bytes.Equal(Encode(&out), enc) {
		t.Fatal("decoded payload re-encodes differently")
	}
}

func TestTruncationAtEveryPrefix(t *testing.T) {
	full := Encode(samplePrims())
	for cut := 0; cut < len(full); cut++ {
		if Decode(full[:cut], new(prims)) == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if Decode(append(append([]byte(nil), full...), 0), new(prims)) == nil {
		t.Fatal("trailing byte accepted")
	}
	// A truncated byte string never yields the full string.
	var b []byte
	one := fields(func(c *Codec) { c.Bytes(&b) })
	enc := Encode(fields(func(c *Codec) { v := []byte("payload"); c.Bytes(&v) }))
	for cut := 0; cut < len(enc); cut++ {
		b = nil
		if err := Decode(enc[:cut], one); err == nil || len(b) == 7 {
			t.Fatalf("truncation at %d: %v, %q", cut, err, b)
		}
	}
}

func TestStickyError(t *testing.T) {
	// After the first failure no later field reads: the U32 below would
	// succeed on the bytes the failed Bytes field left behind.
	var b []byte
	var u uint32
	err := Decode([]byte{0, 0, 0, 9, 1, 2, 3, 4}, fields(func(c *Codec) { c.Bytes(&b); c.U32(&u) }))
	if !errors.Is(err, ErrTruncated) || u != 0 {
		t.Fatalf("err %v, later field read %x", err, u)
	}
}

func TestBoolIsCanonical(t *testing.T) {
	var v bool
	f := fields(func(c *Codec) { c.Bool(&v) })
	for _, in := range []byte{0, 1} {
		if err := Decode([]byte{in}, f); err != nil || v != (in == 1) {
			t.Fatalf("bool byte %d: %v, %v", in, v, err)
		}
	}
	if Decode([]byte{2}, f) == nil {
		t.Fatal("bool byte 2 accepted")
	}
}

func TestHostileLengthWords(t *testing.T) {
	// A huge declared length must fail cleanly, without allocating.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3}
	var b []byte
	var bs [][]byte
	var is []int32
	var u64s []uint64
	for name, f := range map[string]fields{
		"Bytes":      func(c *Codec) { c.Bytes(&b) },
		"ByteSlices": func(c *Codec) { c.ByteSlices(&bs) },
		"Int32s":     func(c *Codec) { c.Int32s(&is) },
		"List":       func(c *Codec) { List(c, &u64s, 1<<20, 8, (*Codec).U64) },
	} {
		for _, in := range [][]byte{huge, {0x80, 0, 0, 0}} {
			if err := Decode(in, f); err == nil {
				t.Errorf("%s: hostile length %x accepted", name, in[:4])
			}
			if n := testing.AllocsPerRun(10, func() { _ = Decode(in, f) }); n != 0 {
				t.Errorf("%s: hostile length %x allocated %.0f times", name, in[:4], n)
			}
		}
	}
	// Counts beyond the list's limit fail even when the input would hold them.
	if Decode([]byte{0, 0, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8}, fields(func(c *Codec) {
		var v []byte
		List(c, &v, 4, 1, (*Codec).U8)
	})) == nil {
		t.Fatal("count beyond limit accepted")
	}
	// A list of fixed-width elements is checked at its element width.
	if err := Decode([]byte{0, 0, 0, 2, 1, 2, 3, 4, 5, 6, 7, 8}, fields(func(c *Codec) {
		List(c, &u64s, 1<<20, 8, (*Codec).U64)
	})); !errors.Is(err, ErrTruncated) {
		t.Fatalf("two u64s in 8 bytes: %v", err)
	}
}

func TestBytesClipCapacity(t *testing.T) {
	var v []byte
	var id [2]byte
	if err := Decode([]byte{0, 0, 0, 2, 9, 9, 5, 6}, fields(func(c *Codec) { c.Bytes(&v); c.Fixed(id[:]) })); err != nil {
		t.Fatal(err)
	}
	if len(v) != 2 || cap(v) != 2 {
		t.Fatalf("Bytes len %d cap %d leaks past the field", len(v), cap(v))
	}
	if id != [2]byte{5, 6} {
		t.Fatalf("Fixed = %v", id)
	}
}

func TestByteSlicesProperty(t *testing.T) {
	f := func(in [][]byte) bool {
		var out [][]byte
		if err := Decode(Encode(fields(func(c *Codec) { c.ByteSlices(&in) })), fields(func(c *Codec) { c.ByteSlices(&out) })); err != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			if !bytes.Equal(out[i], in[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
