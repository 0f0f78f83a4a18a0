package shuffle

import (
	"errors"
	"fmt"
	"io"

	"dissent/internal/crypto"
)

// VecWidth returns the number of group elements needed to carry a
// msgLen-byte message in group g.
func VecWidth(g crypto.Group, msgLen int) int {
	lim := g.EmbedLimit()
	if msgLen == 0 {
		return 1
	}
	return (msgLen + lim - 1) / lim
}

// EmbedMessage splits msg into chunks and embeds each into a group
// element, padding with empty embeddings up to width so every shuffle
// input has identical shape (a requirement for unlinkability: vector
// width must not depend on the message).
func EmbedMessage(g crypto.Group, msg []byte, width int, r io.Reader) ([]crypto.Element, error) {
	lim := g.EmbedLimit()
	if len(msg) > width*lim {
		return nil, fmt.Errorf("shuffle: %d-byte message exceeds width %d capacity %d",
			len(msg), width, width*lim)
	}
	out := make([]crypto.Element, width)
	for c := 0; c < width; c++ {
		lo := c * lim
		hi := lo + lim
		var chunk []byte
		if lo < len(msg) {
			if hi > len(msg) {
				hi = len(msg)
			}
			chunk = msg[lo:hi]
		}
		e, err := g.Embed(chunk, r)
		if err != nil {
			return nil, err
		}
		out[c] = e
	}
	return out, nil
}

// ExtractMessage reassembles a message from embedded elements. A chunk
// shorter than the embed limit terminates the message, mirroring
// EmbedMessage's layout.
func ExtractMessage(g crypto.Group, elems []crypto.Element) ([]byte, error) {
	if len(elems) == 0 {
		return nil, errors.New("shuffle: empty element vector")
	}
	lim := g.EmbedLimit()
	var msg []byte
	for _, e := range elems {
		chunk, err := g.Extract(e)
		if err != nil {
			return nil, err
		}
		msg = append(msg, chunk...)
		if len(chunk) < lim {
			break
		}
	}
	return msg, nil
}

// KeyShuffle runs a width-1 shuffle of bare public-key elements (no
// embedding needed): the scheduling shuffle of §3.10. It returns the
// permuted pseudonym keys.
func KeyShuffle(g crypto.Group, servers []*crypto.KeyPair, pseudonymKeys []crypto.Element, r io.Reader) ([]crypto.Element, error) {
	pubs := make([]crypto.Element, len(servers))
	for i, s := range servers {
		pubs[i] = s.Public
	}
	in := make([]Vec, len(pseudonymKeys))
	for i, k := range pseudonymKeys {
		v, err := PrepareInput(g, pubs, []crypto.Element{k}, r)
		if err != nil {
			return nil, err
		}
		in[i] = v
	}
	plain, _, err := Run(g, servers, in, r)
	if err != nil {
		return nil, err
	}
	out := make([]crypto.Element, len(plain))
	for i, v := range plain {
		out[i] = v[0]
	}
	return out, nil
}

// MessageShuffle runs a general message shuffle: each client's message
// is embedded into a fixed-width vector, onion-encrypted, and mixed.
// Every message must fit in width elements. Used for accusations
// (§3.9) and any anonymous bootstrap message.
func MessageShuffle(g crypto.Group, servers []*crypto.KeyPair, msgs [][]byte, width int, r io.Reader) ([][]byte, error) {
	pubs := make([]crypto.Element, len(servers))
	for i, s := range servers {
		pubs[i] = s.Public
	}
	in := make([]Vec, len(msgs))
	for i, m := range msgs {
		elems, err := EmbedMessage(g, m, width, r)
		if err != nil {
			return nil, err
		}
		v, err := PrepareInput(g, pubs, elems, r)
		if err != nil {
			return nil, err
		}
		in[i] = v
	}
	plain, _, err := Run(g, servers, in, r)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(plain))
	for i, v := range plain {
		m, err := ExtractMessage(g, v)
		if err != nil {
			return nil, fmt.Errorf("shuffle: output %d: %w", i, err)
		}
		out[i] = m
	}
	return out, nil
}
