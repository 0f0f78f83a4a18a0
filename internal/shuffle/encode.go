package shuffle

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"sync"

	"dissent/internal/crypto"
	"dissent/internal/wire"
)

// Wire encoding for StepOutput, used when shuffle steps travel between
// servers (internal/core MsgShuffleStep / MsgBlameStep): the header's two
// counts n and w, then every group element and then every scalar at its
// fixed width, in the order slots lists them. The size is a function of
// (group, n, w) alone, and the receiver knows all three from the list it
// holds, so any other length is rejected before anything is parsed.

var errStepEncoding = errors.New("shuffle: malformed step encoding")

// stepHeader opens a step encoding: its shape.
type stepHeader struct{ n, w uint32 }

// Fields lays out the header.
func (h *stepHeader) Fields(c *wire.Codec) {
	c.U32(&h.n)
	c.U32(&h.w)
}

// newStepOutput allocates every slice of an n x w step.
func newStepOutput(n, w int) *StepOutput {
	s := &StepOutput{
		Shuffled: make([]Vec, n),
		Shares:   make([][]crypto.Element, n),
		Proof: &Proof{
			C: make([]crypto.Element, n), Chain: make([]crypto.Element, n),
			T4: make(Vec, w), THat: make([]crypto.Element, n),
			S4: make([]*big.Int, w), SHat: make([]*big.Int, n), SPrime: make([]*big.Int, n),
		},
	}
	for i := range s.Shuffled {
		s.Shuffled[i] = make(Vec, w)
		s.Shares[i] = make([]crypto.Element, w)
	}
	return s
}

// slots lists every element and every scalar of a fully allocated step
// in wire order; the encoder reads through the pointers and the decoder
// writes through them, so the two cannot disagree about the layout.
func (s *StepOutput) slots() (elems []*crypto.Element, scalars []**big.Int) {
	for i := range s.Shuffled {
		for k := range s.Shuffled[i] {
			elems = append(elems, &s.Shuffled[i][k].C1, &s.Shuffled[i][k].C2)
		}
	}
	for i := range s.Shares {
		for k := range s.Shares[i] {
			elems = append(elems, &s.Shares[i][k])
		}
	}
	proofElems, scalars := s.Proof.slots()
	elems = append(elems, proofElems...)
	scalars = append(scalars, &s.DLEQ.C, &s.DLEQ.Z)
	return elems, scalars
}

// slots is the proof's part of StepOutput.slots: every element, then
// every scalar, of a proof whose slices are allocated.
func (p *Proof) slots() (elems []*crypto.Element, scalars []**big.Int) {
	for _, list := range [][]crypto.Element{p.C, p.Chain} {
		for i := range list {
			elems = append(elems, &list[i])
		}
	}
	elems = append(elems, &p.T1, &p.T2, &p.T3)
	for k := range p.T4 {
		elems = append(elems, &p.T4[k].C1, &p.T4[k].C2)
	}
	for i := range p.THat {
		elems = append(elems, &p.THat[i])
	}
	scalars = append(scalars, &p.S1, &p.S2, &p.S3)
	for _, list := range [][]*big.Int{p.S4, p.SHat, p.SPrime} {
		for i := range list {
			scalars = append(scalars, &list[i])
		}
	}
	return elems, scalars
}

// stepCounts returns how many elements and scalars an n x w step holds.
func stepCounts(n, w int) (elems, scalars int) {
	return 3*n*w + 3*n + 3 + 2*w, 2*n + w + 5
}

// EncodeStepOutput serializes a StepOutput produced by Step.
func EncodeStepOutput(g crypto.Group, s *StepOutput) []byte {
	h := &stepHeader{n: uint32(len(s.Shuffled)), w: uint32(len(s.Shuffled[0]))}
	elems, scalars := s.slots()
	buf := make([]byte, 0, wire.Size(h)+len(elems)*g.ElementLen()+len(scalars)*crypto.ScalarLen(g))
	buf = wire.Append(buf, h)
	for _, e := range elems {
		buf = append(buf, g.Encode(*e)...)
	}
	for _, k := range scalars {
		buf = append(buf, crypto.EncodeScalar(g, *k)...)
	}
	return buf
}

// DecodeStepOutput parses the encoding of an n x w step: the shape the
// receiver expects from the list it is about to verify against. A
// different count, a length other than the one (g, n, w) implies —
// truncated or trailing bytes alike — or a scalar that is not below the
// group order is refused before any per-item state is allocated; every
// element is then decoded (and so checked for group membership) across
// the available processors.
func DecodeStepOutput(g crypto.Group, data []byte, n, w int) (*StepOutput, error) {
	if n <= 0 || w <= 0 {
		return nil, ErrShape
	}
	nElems, nScalars := stepCounts(n, w)
	eLen, sLen := g.ElementLen(), crypto.ScalarLen(g)
	want := stepHeader{n: uint32(n), w: uint32(w)}
	var got stepHeader
	hdr := wire.Size(&got)
	if len(data) < hdr || wire.Decode(data[:hdr], &got) != nil {
		return nil, errStepEncoding
	}
	if got != want {
		return nil, fmt.Errorf("%w: shape %dx%d, want %dx%d", errStepEncoding, got.n, got.w, n, w)
	}
	if len(data) != hdr+nElems*eLen+nScalars*sLen {
		return nil, fmt.Errorf("%w: %d bytes, want %d", errStepEncoding, len(data), hdr+nElems*eLen+nScalars*sLen)
	}
	elemData, scalarData := data[hdr:hdr+nElems*eLen], data[hdr+nElems*eLen:]
	order := crypto.EncodeScalar(g, g.Order())
	for i := 0; i < nScalars; i++ {
		if bytes.Compare(scalarData[i*sLen:(i+1)*sLen], order) >= 0 {
			return nil, fmt.Errorf("%w: scalar %d not below the group order", errStepEncoding, i)
		}
	}

	out := newStepOutput(n, w)
	elems, scalars := out.slots()
	var (
		mu       sync.Mutex
		firstErr error
	)
	crypto.ForChunks(nElems, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e, err := g.Decode(elemData[i*eLen : (i+1)*eLen])
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("shuffle: step element %d: %w", i, err)
				}
				mu.Unlock()
				return
			}
			*elems[i] = e
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	for i, k := range scalars {
		*k = new(big.Int).SetBytes(scalarData[i*sLen : (i+1)*sLen])
	}
	return out, nil
}
