package shuffle

import (
	"errors"
	"fmt"
	"io"

	"dissent/internal/crypto"
)

// StepOutput is everything server j publishes for its turn in the mix:
// the re-encrypted permuted list, the proof of shuffle, its decryption
// share of every C1 and a batch Chaum–Pedersen proof that the shares
// carry its key. The stripped list the next stage mixes is derived by
// each receiver (Stripped), not sent.
type StepOutput struct {
	Shuffled []Vec
	Proof    *Proof
	Shares   [][]crypto.Element // Shares[i][k] = x·Shuffled[i][k].C1
	DLEQ     crypto.DLEQProof
}

// stripContext domain-separates the share proof; the batch combination
// itself binds the server key, every C1 and every share.
var stripContext = []byte("dissent/shuffle-strip")

// flattenForDLEQ lists the C1 bases and share values row by row.
func flattenForDLEQ(cts []Vec, shares [][]crypto.Element) (bs, ds []crypto.Element) {
	for i := range cts {
		for k := range cts[i] {
			bs = append(bs, cts[i][k].C1)
			ds = append(ds, shares[i][k])
		}
	}
	return bs, ds
}

// Step runs one server's turn: re-encrypt+permute under remainingKey
// (the aggregate of this and all later servers' public keys), prove the
// shuffle, then publish this server's decryption shares with their
// proof.
func Step(g crypto.Group, key *crypto.KeyPair, remainingKey crypto.Element, in []Vec, r io.Reader) (*StepOutput, error) {
	if key.Private == nil {
		return nil, errors.New("shuffle: server step requires a private key")
	}
	shuffled, _, proof, err := Prove(g, remainingKey, in, r)
	if err != nil {
		return nil, err
	}
	out := &StepOutput{Shuffled: shuffled, Proof: proof, Shares: make([][]crypto.Element, len(shuffled))}
	crypto.ForChunks(len(shuffled), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Shares[i] = make([]crypto.Element, len(shuffled[i]))
			for k, ct := range shuffled[i] {
				out.Shares[i][k] = crypto.DecryptShare(g, key.Private, ct)
			}
		}
	})
	bs, ds := flattenForDLEQ(shuffled, out.Shares)
	out.DLEQ, err = crypto.ProveDLEQBatch(g, key.Private, bs, ds, key.Public, stripContext, r)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// VerifyStep checks one server's published StepOutput against its
// input list, public key, and the remaining aggregate key.
func VerifyStep(g crypto.Group, serverPub, remainingKey crypto.Element, in []Vec, out *StepOutput) error {
	if out == nil {
		return ErrShape
	}
	if err := Verify(g, remainingKey, in, out.Shuffled, out.Proof); err != nil {
		return err
	}
	if len(out.Shares) != len(out.Shuffled) {
		return ErrShape
	}
	for i, row := range out.Shares {
		if len(row) != len(out.Shuffled[i]) {
			return ErrShape
		}
		for _, share := range row {
			if share == nil {
				return ErrShape
			}
		}
	}
	bs, ds := flattenForDLEQ(out.Shuffled, out.Shares)
	if err := crypto.VerifyDLEQBatch(g, bs, ds, serverPub, out.DLEQ, stripContext); err != nil {
		return fmt.Errorf("%w: %v", ErrBadShares, err)
	}
	return nil
}

// Stripped removes the publishing server's layer from the shuffled
// list (C2 −= share; C1 is unchanged, so the result is a list under the
// remaining aggregate key): the next stage's input.
func (s *StepOutput) Stripped(g crypto.Group) []Vec {
	out := make([]Vec, len(s.Shuffled))
	crypto.ForChunks(len(out), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = make(Vec, len(s.Shuffled[i]))
			for k, ct := range s.Shuffled[i] {
				out[i][k] = crypto.StripLayer(g, ct, s.Shares[i][k])
			}
		}
	})
	return out
}

// Run executes a complete mix locally: every server shuffles and strips
// in order, and each step crosses the wire codec and is verified by the
// caller on behalf of all other servers, as it would be between
// machines. It returns the final plaintext vectors (as elements) plus
// each step's output for auditing. Run is used by tests, benchmarks and
// the Fig. 9 validation; the networked protocol in internal/core
// performs the same steps across transports.
func Run(g crypto.Group, servers []*crypto.KeyPair, inputs []Vec, r io.Reader) ([][]crypto.Element, []*StepOutput, error) {
	if len(servers) == 0 {
		return nil, nil, errors.New("shuffle: no servers")
	}
	pubs := make([]crypto.Element, len(servers))
	for i, s := range servers {
		pubs[i] = s.Public
	}
	cur := inputs
	steps := make([]*StepOutput, 0, len(servers))
	for j, srv := range servers {
		remaining := crypto.AggregateKeys(g, pubs[j:])
		sent, err := Step(g, srv, remaining, cur, r)
		if err != nil {
			return nil, nil, fmt.Errorf("shuffle: server %d: %w", j, err)
		}
		out, err := DecodeStepOutput(g, EncodeStepOutput(g, sent), len(cur), len(cur[0]))
		if err != nil {
			return nil, nil, fmt.Errorf("shuffle: server %d: %w", j, err)
		}
		if err := VerifyStep(g, srv.Public, remaining, cur, out); err != nil {
			return nil, nil, fmt.Errorf("shuffle: server %d: %w", j, err)
		}
		steps = append(steps, out)
		cur = out.Stripped(g)
	}
	plain := make([][]crypto.Element, len(cur))
	for i, v := range cur {
		plain[i] = make([]crypto.Element, len(v))
		for c, ct := range v {
			plain[i][c] = ct.C2
		}
	}
	return plain, steps, nil
}

// PrepareInput onion-encrypts a vector of plaintext elements under the
// aggregate of all server keys, producing a shuffle input.
func PrepareInput(g crypto.Group, serverPubs []crypto.Element, plain []crypto.Element, r io.Reader) (Vec, error) {
	agg := crypto.AggregateKeys(g, serverPubs)
	v := make(Vec, len(plain))
	for c, m := range plain {
		ct, _, err := crypto.Encrypt(g, agg, m, r)
		if err != nil {
			return nil, err
		}
		v[c] = ct
	}
	return v, nil
}
