// Package wire is the binary codec every protocol payload is written
// in: big-endian integers, u32-length-prefixed byte strings and
// u32-count-prefixed lists, so signatures cover a canonical byte string.
//
// A payload states its layout once, as a Fields method that names its
// fields in order on a Codec. The codec runs that one field list in
// three modes — sizing, writing and reading — so a payload's encoder
// and decoder cannot disagree on field order or framing, and Encode
// allocates its output once, at the exact size a sizing pass measured.
//
// Reading is bounds-checked and sticky: the first truncated or
// malformed field records an error and every later field is skipped,
// so a field list needs no error handling of its own. A length or
// count word is checked against the remaining input before anything
// is sliced or allocated, byte fields alias the input with a clipped
// capacity, and Decode rejects trailing bytes.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// ErrTruncated reports an input that ended before a declared field.
var ErrTruncated = errors.New("wire: truncated input")

// errListLimit reports a list count beyond the list's limit. Neither
// error is formatted per input, so rejecting a hostile count never
// allocates.
var errListLimit = errors.New("wire: list length out of range")

// Payload is a value with a wire layout: Fields names its fields, in
// order, on c.
type Payload interface {
	Fields(c *Codec)
}

type mode uint8

const (
	sizing mode = iota
	writing
	reading
)

// Codec runs one payload's field list in one mode. Payloads only ever
// see a Codec inside Fields; Size, Append, Encode and Decode own it.
type Codec struct {
	mode mode
	n    int    // sizing: bytes counted so far
	b    []byte // writing: the output; reading: the unread input
	err  error  // reading: the first failure
}

// codecs recycles Codecs: one handed to an interface method escapes,
// and allocating it per call would cost every encode and decode an
// allocation of its own.
var codecs = sync.Pool{New: func() any { return new(Codec) }}

func run(m mode, b []byte, p Payload) *Codec {
	c := codecs.Get().(*Codec)
	c.mode, c.n, c.b, c.err = m, 0, b, nil
	p.Fields(c)
	return c
}

func release(c *Codec) {
	c.b, c.err = nil, nil
	codecs.Put(c)
}

// Size is the exact length of p's encoding.
func Size(p Payload) int {
	c := run(sizing, nil, p)
	n := c.n
	release(c)
	return n
}

// Append appends p's encoding to dst. With Size(p) bytes of spare
// capacity it does not allocate.
func Append(dst []byte, p Payload) []byte {
	c := run(writing, dst, p)
	b := c.b
	release(c)
	return b
}

// Encode returns p's encoding in one allocation of exactly its size.
func Encode(p Payload) []byte {
	c := run(sizing, nil, p)
	c.mode, c.b = writing, make([]byte, 0, c.n)
	p.Fields(c)
	b := c.b
	release(c)
	return b
}

// RecordFormat is the first byte of every record a member stores: it
// names the layout the rest of the record is in, so a record written in
// another layout is refused by name instead of misparsed.
const RecordFormat byte = 1

// EncodeRecord returns p's encoding behind the record format byte, in
// one allocation of exactly its size.
func EncodeRecord(p Payload) []byte {
	c := run(sizing, nil, p)
	c.mode, c.b = writing, append(make([]byte, 0, 1+c.n), RecordFormat)
	p.Fields(c)
	b := c.b
	release(c)
	return b
}

// DecodeRecord checks that b starts with the record format byte and
// decodes the rest into p, as Decode does.
func DecodeRecord(b []byte, p Payload) error {
	if len(b) == 0 {
		return ErrTruncated
	}
	if b[0] != RecordFormat {
		return fmt.Errorf("wire: stored record format %#02x, want format %#02x", b[0], RecordFormat)
	}
	return Decode(b[1:], p)
}

// Decode reads b into p. It fails on the first malformed field and on
// any bytes left over after the last.
func Decode(b []byte, p Payload) error {
	c := run(reading, b, p)
	err := c.err
	if err == nil && len(c.b) != 0 {
		err = fmt.Errorf("wire: %d trailing bytes", len(c.b))
	}
	release(c)
	return err
}

// take consumes the next n input bytes, returned aliasing the input
// with a clipped capacity so a caller's append cannot scribble past
// them. It reports false once the input has failed.
func (c *Codec) take(n int) ([]byte, bool) {
	if c.err != nil {
		return nil, false
	}
	if n < 0 || len(c.b) < n {
		c.err = ErrTruncated
		return nil, false
	}
	v := c.b[:n:n]
	c.b = c.b[n:]
	return v, true
}

// U8 is one byte.
func (c *Codec) U8(v *byte) {
	switch c.mode {
	case sizing:
		c.n++
	case writing:
		c.b = append(c.b, *v)
	default:
		if b, ok := c.take(1); ok {
			*v = b[0]
		}
	}
}

// Bool is one byte, 0 or 1; any other byte is malformed, so every
// accepted encoding is the canonical one.
func (c *Codec) Bool(v *bool) {
	var b byte
	if *v {
		b = 1
	}
	c.U8(&b)
	if c.mode == reading && c.err == nil {
		if b > 1 {
			c.err = fmt.Errorf("wire: bool byte %d", b)
			return
		}
		*v = b == 1
	}
}

// U32 is a big-endian uint32.
func (c *Codec) U32(v *uint32) {
	switch c.mode {
	case sizing:
		c.n += 4
	case writing:
		c.b = binary.BigEndian.AppendUint32(c.b, *v)
	default:
		if b, ok := c.take(4); ok {
			*v = binary.BigEndian.Uint32(b)
		}
	}
}

// I32 is an int32 in two's complement, as a U32.
func (c *Codec) I32(v *int32) {
	u := uint32(*v)
	c.U32(&u)
	*v = int32(u)
}

// U64 is a big-endian uint64.
func (c *Codec) U64(v *uint64) {
	switch c.mode {
	case sizing:
		c.n += 8
	case writing:
		c.b = binary.BigEndian.AppendUint64(c.b, *v)
	default:
		if b, ok := c.take(8); ok {
			*v = binary.BigEndian.Uint64(b)
		}
	}
}

// Fixed is exactly len(v) unprefixed bytes (node IDs, digests), read
// into v.
func (c *Codec) Fixed(v []byte) {
	switch c.mode {
	case sizing:
		c.n += len(v)
	case writing:
		c.b = append(c.b, v...)
	default:
		if b, ok := c.take(len(v)); ok {
			copy(v, b)
		}
	}
}

// Bytes is a u32-length-prefixed byte string. A read aliases the input.
func (c *Codec) Bytes(v *[]byte) {
	n := uint32(len(*v))
	c.U32(&n)
	switch c.mode {
	case sizing:
		c.n += len(*v)
	case writing:
		c.b = append(c.b, *v...)
	default:
		if b, ok := c.take(int(n)); ok {
			*v = b
		}
	}
}

// String is a byte string read into a string.
func (c *Codec) String(v *string) {
	n := uint32(len(*v))
	c.U32(&n)
	switch c.mode {
	case sizing:
		c.n += len(*v)
	case writing:
		c.b = append(c.b, *v...)
	default:
		if b, ok := c.take(int(n)); ok {
			*v = string(b)
		}
	}
}

// count reads a list length and checks it against limit and against
// the input left at elemMin bytes per element — the guard that keeps a
// hostile count from driving an allocation before per-element reads
// would fail.
func (c *Codec) count(limit, elemMin int) int {
	var n uint32
	c.U32(&n)
	if c.err != nil {
		return 0
	}
	if uint64(n) > uint64(limit) {
		c.err = errListLimit
		return 0
	}
	if uint64(n)*uint64(elemMin) > uint64(len(c.b)) {
		c.err = ErrTruncated
		return 0
	}
	return int(n)
}

// List is a u32-count-prefixed list whose elements elem lays out. A
// read accepts at most limit elements, each encoded in at least elemMin
// bytes (at least one is assumed), and checks the count before
// allocating the list.
func List[T any](c *Codec, v *[]T, limit, elemMin int, elem func(*Codec, *T)) {
	n := c.Len(len(*v), limit, elemMin)
	if c.mode != reading {
		for i := range *v {
			elem(c, &(*v)[i])
		}
		return
	}
	if c.err != nil {
		return
	}
	out := make([]T, n)
	for i := range out {
		elem(c, &out[i])
	}
	*v = out
}

// ByteSlices is a list of byte strings.
func (c *Codec) ByteSlices(v *[][]byte) {
	List(c, v, math.MaxInt32, 4, (*Codec).Bytes)
}

// Int is an int as a U32: the low 32 bits are written, and a read
// yields a value in [0, 2^32).
func (c *Codec) Int(v *int) {
	u := uint32(*v)
	c.U32(&u)
	if c.mode == reading && c.err == nil {
		*v = int(u)
	}
}

// Len is the count word of a list whose elements the caller lays out
// itself: parallel slices, or rows whose width an earlier field fixes.
// Sizing and writing write n and return it; a read returns the count
// it read, checked as List checks its count (at most limit, at least
// elemMin bytes each), or 0 once the input has failed.
func (c *Codec) Len(n, limit, elemMin int) int {
	if c.mode != reading {
		u := uint32(n)
		c.U32(&u)
		return n
	}
	return c.count(limit, max(elemMin, 1))
}

// Int32s is a list of int32s.
func (c *Codec) Int32s(v *[]int32) {
	switch c.mode {
	case sizing:
		c.n += 4 + 4*len(*v)
	case writing:
		c.b = binary.BigEndian.AppendUint32(c.b, uint32(len(*v)))
		for _, x := range *v {
			c.b = binary.BigEndian.AppendUint32(c.b, uint32(x))
		}
	default:
		n := c.count(math.MaxInt32, 4)
		if c.err != nil {
			return
		}
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(binary.BigEndian.Uint32(c.b[4*i:]))
		}
		c.b = c.b[4*n:]
		*v = out
	}
}
