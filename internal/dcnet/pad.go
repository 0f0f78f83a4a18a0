package dcnet

import (
	"dissent/internal/crypto"
)

// Pad derives the per-round pseudo-random strings a node shares with
// its peers and combines them into DC-net ciphertexts. A client's Pad
// holds one seed per server (M seeds); a server's Pad holds one seed
// per client (N seeds) but normally expands only the subset that
// submitted in a given round (§3.4, §3.6).
//
// Buffer ownership: the *Into methods XOR into caller-owned buffers and
// never retain them, so engines can recycle round vectors through a
// sync.Pool.
type Pad struct {
	maker crypto.PRNGMaker
}

// NewPad returns a Pad using maker for stream expansion. The engines
// pass crypto.NewAESPRNG; tests and probes may pass a cheaper stream.
func NewPad(maker crypto.PRNGMaker) *Pad {
	if maker == nil {
		maker = crypto.NewAESPRNG
	}
	return &Pad{maker: maker}
}

// RoundSeed derives the (pair, round) stream seed from a pairwise
// secret seed. Both ends of the pair derive the same value.
func RoundSeed(pairSeed []byte, round uint64) []byte {
	return crypto.Hash("dissent/round-stream", pairSeed, crypto.HashUint64(round))
}

// XORStream XORs the (pairSeed, round) stream of the given length into
// dst (which must be at least length bytes).
func (p *Pad) XORStream(dst []byte, pairSeed []byte, round uint64, length int) {
	s := p.maker(RoundSeed(pairSeed, round))
	s.XORKeyStream(dst[:length], dst[:length])
}

// ClientCiphertextInto computes client ciphertext c_i = m ⊕ ⊕_j
// PRNG(K_ij) for a round into dst: the message vector XORed with one
// stream per server (Algorithm 1 step 2). msg must already be laid out
// as a full cleartext-length vector (zeros outside the client's own
// slots) and is not modified; dst must be len(msg) bytes and may not
// alias msg. No allocation beyond the per-seed stream setup; pair with
// Prepare/PadStreams to move even that off the submit path.
func (p *Pad) ClientCiphertextInto(dst []byte, serverSeeds [][]byte, round uint64, msg []byte) {
	copy(dst, msg)
	for _, seed := range serverSeeds {
		p.XORStream(dst, seed, round, len(msg))
	}
}

// ServerPadInto XOR-accumulates ⊕_i PRNG(K_ij) over the given client
// seeds — the server's contribution for exactly the clients included in
// the round (Algorithm 2 step 3) — into dst (XOR semantics: dst need not
// start zeroed; the streams fold into whatever it already holds). dst is caller-owned and may come from a
// pool. For multicore expansion see ParallelPad.
func (p *Pad) ServerPadInto(dst []byte, clientSeeds [][]byte, round uint64) {
	for _, seed := range clientSeeds {
		p.XORStream(dst, seed, round, len(dst))
	}
}

// PadStreams holds pre-built (pair, round) streams: the AES key
// schedules and CTR state for one upcoming round, constructed during
// the idle window so the submit path itself runs allocation-free.
// Streams are stateful — XOR/CiphertextInto consumes them — so a
// PadStreams is good for exactly one vector.
type PadStreams struct {
	round   uint64
	streams []crypto.PRNG
}

// Prepare builds the (seed, round) streams for a future round. Seeds
// are round-independent, so this needs nothing beyond the round number
// — the prefetch trick the engines use between rounds.
func (p *Pad) Prepare(seeds [][]byte, round uint64) *PadStreams {
	ps := &PadStreams{round: round, streams: make([]crypto.PRNG, len(seeds))}
	for i, seed := range seeds {
		ps.streams[i] = p.maker(RoundSeed(seed, round))
	}
	return ps
}

// Round returns the round the streams were prepared for.
func (ps *PadStreams) Round() uint64 { return ps.round }

// XORInto XORs every prepared stream into dst, consuming len(dst)
// bytes of each. Allocation-free.
func (ps *PadStreams) XORInto(dst []byte) {
	for _, s := range ps.streams {
		s.XORKeyStream(dst, dst)
	}
}

// CiphertextInto computes the client ciphertext for msg into dst using
// the prepared streams: copy + in-place XOR, 0 allocs/op. dst must be
// len(msg) bytes and may not alias msg.
func (ps *PadStreams) CiphertextInto(dst, msg []byte) {
	copy(dst, msg[:len(dst)])
	ps.XORInto(dst)
}

// StreamBit recomputes a single bit of the (pairSeed, round) stream:
// the accusation trace publishes exactly these bits so the servers can
// find who XORed an unmatched 1 into the witness position (§3.9).
func (p *Pad) StreamBit(pairSeed []byte, round uint64, bitIndex int) byte {
	s := p.maker(RoundSeed(pairSeed, round))
	byteIndex := bitIndex / 8
	var b [1]byte
	if sk, ok := s.(crypto.SeekableStream); ok {
		sk.XORKeyStreamAt(b[:], uint64(byteIndex))
	} else {
		// Sequential fallback: discard the prefix through a bounded
		// scratch chunk instead of materializing byteIndex bytes.
		var chunk [256]byte
		for skip := byteIndex; skip > 0; {
			n := skip
			if n > len(chunk) {
				n = len(chunk)
			}
			s.Read(chunk[:n])
			skip -= n
		}
		s.Read(b[:])
	}
	return (b[0] >> (uint(bitIndex) % 8)) & 1
}

// Bit extracts bit bitIndex from a byte vector (LSB-first within each
// byte, matching StreamBit).
func Bit(buf []byte, bitIndex int) byte {
	return (buf[bitIndex/8] >> (uint(bitIndex) % 8)) & 1
}
