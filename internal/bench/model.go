// Package bench regenerates every table and figure of the paper's
// evaluation (§5): the window-policy table and CDF (Fig. 6), DC-net
// round scaling with clients and servers (Figs. 7–8), the full-protocol
// breakdown (Fig. 9), and the web-browsing comparison (Figs. 10–11).
//
// Methodology: DC-net rounds run the *real* protocol engines over the
// discrete-event simulator with the paper's testbed topologies, with
// real crypto execution time charged as virtual time. The
// public-key-heavy shuffle sweeps of Fig. 9 use an analytic operation
// count priced by microbenchmark calibration, validated against real
// engine runs at small scale (the full sweep would cost hours of
// serial big-integer arithmetic, just as it did for the paper's
// authors — their 1,000-client accusation shuffle ran for over an
// hour on a testbed).
package bench

import (
	"sync"
	"time"

	"dissent/internal/crypto"
	"dissent/internal/shuffle"
)

// CostModel holds microbenchmark-calibrated per-operation costs used
// by the analytic Fig. 9 model. Figs. 6–8 and 10 charge nothing from
// it: their engines sign, verify and expand pads for real, and
// MeasureCompute charges the time taken.
type CostModel struct {
	ECBaseMul   time.Duration // P-256 k*G
	ECScalarMul time.Duration // P-256 k*P
	ModExp      time.Duration // modp-2048 exponentiation
	AESBps      float64       // AES-CTR stream throughput, bytes/sec
}

var (
	calOnce  sync.Once
	calModel CostModel
)

// Calibrate measures per-operation costs on this machine (cached).
func Calibrate() CostModel {
	calOnce.Do(func() {
		calModel = calibrate()
	})
	return calModel
}

func timeOp(iters int, op func()) time.Duration {
	op() // warm up
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		op()
	}
	return time.Since(t0) / time.Duration(iters)
}

func calibrate() CostModel {
	ec := crypto.P256()
	mp := crypto.ModP2048()
	k, _ := ec.RandomScalar(nil)
	p, _ := ec.RandomElement(nil)
	mk, _ := mp.RandomScalar(nil)
	mpE, _ := mp.RandomElement(nil)

	var m CostModel
	m.ECBaseMul = timeOp(50, func() { ec.BaseMult(k) })
	m.ECScalarMul = timeOp(50, func() { ec.ScalarMult(p, k) })
	m.ModExp = timeOp(10, func() { mp.ScalarMult(mpE, mk) })

	buf := make([]byte, 1<<20)
	prng := crypto.NewAESPRNG(crypto.Hash("cal", nil))
	d := timeOp(8, func() { prng.XORKeyStream(buf, buf) })
	m.AESBps = float64(len(buf)) / d.Seconds()
	return m
}

// --- Analytic shuffle model (Fig. 9) ----------------------------------

// GroupCosts prices the group operations a shuffle performs.
type GroupCosts struct {
	Mul        time.Duration // scalar multiplication / exponentiation by a full-width scalar
	BaseMul    time.Duration
	ElementLen int
	ScalarLen  int
	// OrderBits is the scalar width when a multiplication's cost grows
	// with the scalar's length (square-and-multiply in the mod-p group);
	// 0 when every multiplication costs Mul whatever the scalar
	// (P-256's constant-time ladder).
	OrderBits int
}

// mul prices a multiplication by a scalar of the given bit length.
func (g GroupCosts) mul(bits int) time.Duration {
	if g.OrderBits == 0 || bits >= g.OrderBits {
		return g.Mul
	}
	return g.Mul * time.Duration(bits) / time.Duration(g.OrderBits)
}

// ecCosts and modpCosts derive group costs from the calibration.
func ecCosts(m CostModel) GroupCosts {
	return GroupCosts{Mul: m.ECScalarMul, BaseMul: m.ECBaseMul, ElementLen: 33, ScalarLen: 32}
}

func modpCosts(m CostModel) GroupCosts {
	return GroupCosts{Mul: m.ModExp, BaseMul: m.ModExp, ElementLen: 256, ScalarLen: 256, OrderBits: 2047}
}

// ShuffleParams describe one verifiable-shuffle execution.
type ShuffleParams struct {
	Servers int
	Inputs  int // N
	Width   int // ciphertexts per input vector
	// ServerBandwidth and ServerLatency model the inter-server links.
	ServerBandwidth float64
	ServerLatency   time.Duration
}

// ShuffleTime prices a complete serial mix (the §3.10 pipeline): every
// server re-encrypts and permutes, proves the shuffle with the
// permutation-commitment argument of internal/shuffle, publishes its
// decryption shares with a batch DLEQ proof, and every other server
// verifies each step before the next proceeds.
//
// Per step, counting group multiplications (additions, hashing and
// element decoding are small next to them), with u the 128-bit and χ
// the 256-bit Fiat–Shamir challenges:
//
//	prove  = N·W re-encryptions (base + mul)
//	         + N commitments (base) + 2·N chain links and their
//	           announcements (base + mul each)
//	         + N + 2·N·W announcement mults (Σω'·H, Σω'·out)
//	         + N·W decrypt-share mults + 2·N·W batch-DLEQ mults by u-sized weights
//	verify = N + 2·N·W mults by u (Σu·c, Σu·in) + N + 2·N·W full mults
//	         (Σs'·H, Σs'·out) + N chain links (base + mul + one mult by χ)
//	         + 2·N·W batch-DLEQ mults by u-sized weights
//	         (verifiers run in parallel on distinct servers)
//	wire   = 3·N·W + 3·N + 2·W + 3 elements and 2·N + W + 5 scalars
//
// total = Σ_steps (prove + verify + transfer + latency).
func ShuffleTime(g GroupCosts, p ShuffleParams) time.Duration {
	n, nw := time.Duration(p.Inputs), time.Duration(p.Inputs*p.Width)
	short, chi := g.mul(128), g.mul(256)

	prove := nw*(g.BaseMul+g.Mul) + n*g.BaseMul + 2*n*(g.BaseMul+g.Mul) +
		(n+2*nw)*g.Mul + nw*g.Mul + 2*nw*short
	verify := (n+2*nw)*short + (n+2*nw)*g.Mul + n*(g.BaseMul+g.Mul+chi) + 2*nw*short

	w := p.Width
	stepBytes := float64((3*p.Inputs*w+3*p.Inputs+2*w+3)*g.ElementLen + (2*p.Inputs+w+5)*g.ScalarLen)
	var transfer time.Duration
	if p.ServerBandwidth > 0 {
		// The prover broadcasts its step to the other servers over its
		// access link.
		transfer = time.Duration(stepBytes * float64(p.Servers-1) / p.ServerBandwidth * float64(time.Second))
	}
	perStep := prove + verify + transfer + p.ServerLatency
	return time.Duration(p.Servers) * perStep
}

// DCNetParams describe one DC-net exchange for the analytic model.
type DCNetParams struct {
	Servers, Clients int
	RoundBytes       int
	ClientLatency    time.Duration
	ServerLatency    time.Duration
	ServerBandwidth  float64
	ClientBandwidth  float64
}

// DCNetRoundTime prices one exchange: client pad generation and
// upload, server pad generation (parallel across servers), the
// inventory+commit/share/certify exchanges, and output distribution.
func DCNetRoundTime(m CostModel, p DCNetParams) time.Duration {
	b := float64(p.RoundBytes)
	client := time.Duration(float64(p.Servers) * b / m.AESBps * float64(time.Second))
	var clientTx time.Duration
	if p.ClientBandwidth > 0 {
		clientTx = time.Duration(b / p.ClientBandwidth * float64(time.Second))
	}
	server := time.Duration(float64(p.Clients) * b / m.AESBps * float64(time.Second))
	var serverTx time.Duration
	if p.ServerBandwidth > 0 {
		// Share exchange: each server sends its ciphertext to M-1 peers;
		// output distribution to its clients is a comparable volume.
		serverTx = time.Duration(2 * b * float64(p.Servers-1) / p.ServerBandwidth * float64(time.Second))
	}
	// 3 server-to-server phases in steady state (the commit rides the
	// inventory; then share, certify).
	return client + clientTx + p.ClientLatency + server + serverTx +
		3*p.ServerLatency + p.ClientLatency
}

// BlameEvalTime prices accusation tracing (§3.9): every server
// recomputes one PRNG bit per included client (expanding the stream up
// to the witness byte) plus two rounds of small inter-server messages
// and a rebuttal round trip.
func BlameEvalTime(m CostModel, p DCNetParams) time.Duration {
	expand := float64(p.RoundBytes) / 2 // expected stream prefix to the witness bit
	perServer := time.Duration(float64(p.Clients) * expand / m.AESBps * float64(time.Second))
	return perServer + 2*p.ServerLatency + 2*p.ClientLatency
}

// AccusationWidth returns the blame-shuffle vector width in the
// production message group.
func AccusationWidth() int {
	// accusation = 16 bytes + P-256 Schnorr signature (64 bytes).
	return shuffle.VecWidth(crypto.ModP2048(), 16+crypto.SignatureLen(crypto.P256()))
}
