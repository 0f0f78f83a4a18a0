// Package wire provides the shared bounds-checked binary codec
// primitives used by every protocol payload: a length-prefixed,
// big-endian format in which signatures cover a canonical byte string.
//
// The Reader folds together the two readers that previously lived on
// opposite sides of the core→group import edge (internal/core's decBuf
// and internal/group's rosterDec): one implementation, so the message
// framing and the certified roster framing can never drift apart, and
// every decode path gets the same hostile-input hardening (truncation
// checks before any slice, list-length sanity bounds before any
// allocation).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// ErrTruncated reports an input that ended before a declared field.
var ErrTruncated = errors.New("wire: truncated input")

// Reader is a bounds-checked sequential reader over one wire payload.
// Methods consume from B; every read checks the remaining length first,
// so hostile inputs can truncate anywhere without panicking a decoder.
type Reader struct {
	B []byte
}

// U8 reads one byte.
func (r *Reader) U8() (byte, error) {
	if len(r.B) < 1 {
		return 0, ErrTruncated
	}
	v := r.B[0]
	r.B = r.B[1:]
	return v, nil
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() (uint32, error) {
	if len(r.B) < 4 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint32(r.B)
	r.B = r.B[4:]
	return v, nil
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() (uint64, error) {
	if len(r.B) < 8 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint64(r.B)
	r.B = r.B[8:]
	return v, nil
}

// Raw reads exactly n unprefixed bytes (fixed-width fields: node IDs,
// digests). The returned slice aliases the input with a clipped
// capacity, so appends by the caller cannot scribble past it.
func (r *Reader) Raw(n int) ([]byte, error) {
	if n < 0 || len(r.B) < n {
		return nil, ErrTruncated
	}
	v := r.B[:n:n]
	r.B = r.B[n:]
	return v, nil
}

// Bytes reads a u32-length-prefixed byte string. The result aliases
// the input with a clipped capacity.
func (r *Reader) Bytes() ([]byte, error) {
	n, err := r.U32()
	if err != nil {
		return nil, err
	}
	if uint32(len(r.B)) < n {
		return nil, ErrTruncated
	}
	v := r.B[:n:n]
	r.B = r.B[n:]
	return v, nil
}

// Count reads a u32 list length and rejects values beyond max or the
// remaining input length — the guard that keeps a hostile length word
// from driving a huge allocation before per-element reads fail.
func (r *Reader) Count(max int) (int, error) {
	n, err := r.U32()
	if err != nil {
		return 0, err
	}
	if uint64(n) > uint64(max) || uint64(n) > uint64(len(r.B)) {
		return 0, fmt.Errorf("wire: list length %d out of range", n)
	}
	return int(n), nil
}

// ByteSlices reads a u32-count-prefixed list of length-prefixed byte
// strings.
func (r *Reader) ByteSlices() ([][]byte, error) {
	n, err := r.Count(len(r.B))
	if err != nil {
		return nil, err
	}
	out := make([][]byte, n)
	for i := range out {
		if out[i], err = r.Bytes(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Int32s reads a u32-count-prefixed list of big-endian int32s.
func (r *Reader) Int32s() ([]int32, error) {
	n, err := r.U32()
	if err != nil {
		return nil, err
	}
	if uint64(n)*4 > uint64(len(r.B)) {
		return nil, ErrTruncated
	}
	out := make([]int32, n)
	for i := range out {
		v, err := r.U32()
		if err != nil {
			return nil, err
		}
		out[i] = int32(v)
	}
	return out, nil
}

// Done verifies the payload was fully consumed: trailing bytes mean a
// malformed (or maliciously extended) message.
func (r *Reader) Done() error {
	if len(r.B) != 0 {
		return fmt.Errorf("wire: %d trailing bytes", len(r.B))
	}
	return nil
}

// Writer is the matching append-only encoder.
type Writer struct {
	B []byte
}

// Grow reserves room for n more bytes, so an encoder that knows its
// output size allocates once, at exactly that size, instead of
// append-and-regrow (which for a vector-sized field allocates and
// copies the body more than once).
func (w *Writer) Grow(n int) { w.B = slices.Grow(w.B, n) }

// U8 appends one byte.
func (w *Writer) U8(v byte) { w.B = append(w.B, v) }

// U32 appends a big-endian uint32.
func (w *Writer) U32(v uint32) { w.B = binary.BigEndian.AppendUint32(w.B, v) }

// U64 appends a big-endian uint64.
func (w *Writer) U64(v uint64) { w.B = binary.BigEndian.AppendUint64(w.B, v) }

// Bytes appends a u32-length-prefixed byte string.
func (w *Writer) Bytes(v []byte) {
	w.U32(uint32(len(v)))
	w.B = append(w.B, v...)
}

// ByteSlices appends a u32-count-prefixed list of length-prefixed byte
// strings.
func (w *Writer) ByteSlices(v [][]byte) {
	w.U32(uint32(len(v)))
	for _, s := range v {
		w.Bytes(s)
	}
}

// Int32s appends a u32-count-prefixed list of big-endian int32s.
func (w *Writer) Int32s(v []int32) {
	w.U32(uint32(len(v)))
	for _, s := range v {
		w.U32(uint32(s))
	}
}
