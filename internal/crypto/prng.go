package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
)

// PRNG is a deterministic pseudo-random byte stream. Client/server
// pairs seed one PRNG per (pair, round) from their shared secret; the
// XOR of matching streams cancels in the DC-net combine step, so any
// deterministic stream construction preserves protocol correctness.
//
// Two implementations are provided: the AES-256-CTR stream used in
// production, and a much faster xoshiro-based stream used by the
// large-scale benchmark harnesses, where timing is accounted by the
// simulator's calibrated cost model rather than by the cipher actually
// executed (see internal/bench).
type PRNG interface {
	// Read fills p with pseudo-random bytes; it never fails.
	Read(p []byte) (int, error)
	// XORKeyStream XORs the next len(src) stream bytes into dst.
	// dst and src may overlap entirely or not at all.
	XORKeyStream(dst, src []byte)
}

// Uintn draws a uniform integer in [0, bound) from p: big-endian
// 32-bit words, rejecting those at or above the largest multiple of
// bound, so every value is equally likely. Identical streams give
// identical draws. bound must be positive.
func Uintn(p PRNG, bound uint32) uint32 {
	limit := ^uint32(0) - ^uint32(0)%bound
	var buf [4]byte
	for {
		p.Read(buf[:])
		if v := binary.BigEndian.Uint32(buf[:]); v < limit {
			return v % bound
		}
	}
}

// PRNGMaker constructs a stream from a 32-byte seed. It parameterizes
// the DC-net engines so benchmarks can swap in FastPRNG.
type PRNGMaker func(seed []byte) PRNG

// SeekableStream is implemented by PRNGs whose keystream supports
// random access: XORKeyStreamAt XORs keystream bytes [off, off+len(dst))
// into dst in place, independently of any sequential position. The
// DC-net's parallel pad expander uses it to let several workers cover
// disjoint byte ranges of one huge round vector.
type SeekableStream interface {
	XORKeyStreamAt(dst []byte, off uint64)
}

// aesPRNG implements PRNG over AES-256-CTR with a zero IV; the seed is
// unique per (pair, round, purpose) so IV reuse cannot occur.
//
// The hot path is allocation-free: the in-place XOR (dst == src, the
// DC-net pad accumulate pattern) feeds the stdlib's vectorized CTR
// directly, and the two-operand form stages keystream chunks through a
// fixed scratch buffer owned by the stream instead of allocating a
// temporary per call.
type aesPRNG struct {
	block  cipher.Block
	stream cipher.Stream
	buf    []byte // lazy keystream scratch for the two-operand XOR path
}

// aesScratchLen sizes the two-operand XOR path's keystream chunks. The
// scratch is allocated on first use only: the dominant DC-net pattern
// (pad accumulate, dst == src) never touches it, keeping per-stream
// setup small when a server builds one stream per client per round.
const aesScratchLen = 512

// NewAESPRNG returns the production AES-256-CTR stream for seed.
func NewAESPRNG(seed []byte) PRNG {
	key := Hash("dissent/prng-key", seed)
	block, err := aes.NewCipher(key)
	if err != nil {
		panic("crypto: aes.NewCipher: " + err.Error())
	}
	var iv [aes.BlockSize]byte
	return &aesPRNG{block: block, stream: cipher.NewCTR(block, iv[:])}
}

func (p *aesPRNG) Read(b []byte) (int, error) {
	for i := range b {
		b[i] = 0
	}
	p.stream.XORKeyStream(b, b)
	return len(b), nil
}

func (p *aesPRNG) XORKeyStream(dst, src []byte) {
	if len(src) == 0 {
		return
	}
	dst = dst[:len(src)]
	if &dst[0] == &src[0] {
		// Entire overlap: CTR's native in-place XOR is exactly dst ^= ks.
		p.stream.XORKeyStream(dst, src)
		return
	}
	if p.buf == nil {
		p.buf = make([]byte, aesScratchLen)
	}
	for len(src) > 0 {
		n := len(src)
		if n > len(p.buf) {
			n = len(p.buf)
		}
		ks := p.buf[:n]
		for i := range ks {
			ks[i] = 0
		}
		p.stream.XORKeyStream(ks, ks)
		subtle.XORBytes(dst[:n], src[:n], ks)
		dst, src = dst[n:], src[n:]
	}
}

// XORKeyStreamAt XORs keystream bytes [off, off+len(dst)) into dst,
// seeking by rebuilding the CTR state at the containing block. It is
// independent of (and does not disturb) the sequential stream position.
func (p *aesPRNG) XORKeyStreamAt(dst []byte, off uint64) {
	if len(dst) == 0 {
		return
	}
	var iv [aes.BlockSize]byte
	binary.BigEndian.PutUint64(iv[8:], off/aes.BlockSize)
	s := cipher.NewCTR(p.block, iv[:])
	if skip := int(off % aes.BlockSize); skip > 0 {
		var head [aes.BlockSize]byte
		s.XORKeyStream(head[:skip], head[:skip])
	}
	s.XORKeyStream(dst, dst)
}

// fastPRNG is a xoshiro256** stream: deterministic, uniform-looking,
// and several times faster than AES-CTR without hardware acceleration.
// NOT cryptographically secure — benchmark harness use only.
type fastPRNG struct {
	s   [4]uint64
	buf [8]byte
	n   int // bytes remaining in buf
}

// NewFastPRNG returns a non-cryptographic stream for seed, for use in
// benchmark harnesses only.
func NewFastPRNG(seed []byte) PRNG {
	h := Hash("dissent/fast-prng", seed)
	p := &fastPRNG{}
	for i := 0; i < 4; i++ {
		p.s[i] = binary.LittleEndian.Uint64(h[i*8:])
		if p.s[i] == 0 {
			p.s[i] = 0x9E3779B97F4A7C15
		}
	}
	return p
}

func (p *fastPRNG) next() uint64 {
	s := &p.s
	result := rotl64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl64(s[3], 45)
	return result
}

func rotl64(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

func (p *fastPRNG) Read(b []byte) (int, error) {
	i := 0
	// Drain buffered bytes first.
	for p.n > 0 && i < len(b) {
		b[i] = p.buf[8-p.n]
		p.n--
		i++
	}
	for i+8 <= len(b) {
		binary.LittleEndian.PutUint64(b[i:], p.next())
		i += 8
	}
	if i < len(b) {
		binary.LittleEndian.PutUint64(p.buf[:], p.next())
		p.n = 8
		for i < len(b) {
			b[i] = p.buf[8-p.n]
			p.n--
			i++
		}
	}
	return len(b), nil
}

func (p *fastPRNG) XORKeyStream(dst, src []byte) {
	i := 0
	for p.n > 0 && i < len(src) {
		dst[i] = src[i] ^ p.buf[8-p.n]
		p.n--
		i++
	}
	for i+8 <= len(src) {
		v := binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(dst[i:], v^p.next())
		i += 8
	}
	if i < len(src) {
		binary.LittleEndian.PutUint64(p.buf[:], p.next())
		p.n = 8
		for i < len(src) {
			dst[i] = src[i] ^ p.buf[8-p.n]
			p.n--
			i++
		}
	}
}

// XORBytes XORs src into dst in place (dst[i] ^= src[i]) and returns
// the number of bytes processed (the shorter length). It rides the
// stdlib's vectorized XOR.
func XORBytes(dst, src []byte) int {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	if n == 0 {
		return 0
	}
	subtle.XORBytes(dst[:n], dst[:n], src[:n])
	return n
}
