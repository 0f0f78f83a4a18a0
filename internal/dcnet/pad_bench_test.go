package dcnet

import (
	"fmt"
	"testing"

	"dissent/internal/crypto"
)

// BenchmarkServerPadParallel sweeps worker counts × client counts over
// the production AES stream. On a W-core machine the W-worker rows
// should approach W× the 1-worker row for the 1024-client shard (the
// expansion is compute-bound); allocations stay flat because lanes are
// reused.
func BenchmarkServerPadParallel(b *testing.B) {
	const roundLen = 1024
	for _, clients := range []int{128, 1024} {
		seeds := paritySeeds(7, clients)
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%dclients/%dworkers", clients, workers), func(b *testing.B) {
				pp := NewParallelPad(crypto.NewAESPRNG, workers)
				dst := make([]byte, roundLen)
				b.SetBytes(int64(clients) * roundLen)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					clear(dst)
					pp.ServerPadInto(dst, seeds, uint64(i))
				}
			})
		}
	}
}

// BenchmarkClientSubmitSteadyState measures the steady-state client
// submit path — slot encode plus ciphertext build over prefetched
// streams. Stream preparation happens
// off-timer, exactly as the engine does it during the idle window.
func BenchmarkClientSubmitSteadyState(b *testing.B) {
	const servers, slotLen, vecLen = 16, 1024, 4096
	seeds := paritySeeds(5, servers)
	pad := NewPad(crypto.NewAESPRNG)
	vec := make([]byte, vecLen)
	ct := make([]byte, vecLen)
	payload := SlotPayload{NextLen: slotLen, Data: make([]byte, slotLen-MinSlotLen)}
	rnd := crypto.NewFastPRNG(crypto.Hash("bench-rnd", nil)) // deterministic, alloc-free seed source
	b.SetBytes(vecLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ps := pad.Prepare(seeds, uint64(i)) // idle-window work
		b.StartTimer()
		if err := EncodeSlot(vec[:slotLen], payload, rnd); err != nil {
			b.Fatal(err)
		}
		ps.CiphertextInto(ct, vec)
	}
}

// BenchmarkSlotCodec isolates the OAEP-like slot mask at the two shapes
// the benchmark workloads run: a microblog post and a 128 KiB bulk slot.
func BenchmarkSlotCodec(b *testing.B) {
	rnd := crypto.NewFastPRNG(crypto.Hash("bench-rnd", nil))
	for _, slotLen := range []int{128, 128 << 10} {
		buf := make([]byte, slotLen)
		payload := SlotPayload{NextLen: slotLen, Data: make([]byte, SlotCapacity(slotLen))}
		b.Run(fmt.Sprintf("encode/%d", slotLen), func(b *testing.B) {
			b.SetBytes(int64(slotLen))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := EncodeSlot(buf, payload, rnd); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("decode/%d", slotLen), func(b *testing.B) {
			b.SetBytes(int64(slotLen))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := DecodeSlot(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRoundCriticalPath compares the server's submit→cleartext
// critical path before and after the streaming redesign, at 1024
// clients. "batch" is the old shape: all N ciphertext XORs plus the
// full N-stream pad expansion happen after the window closes. "stream"
// is the new shape: ciphertexts were accumulated as they arrived and
// the pad was prefetched during the window, so the critical path is
// one accumulator XOR plus the M-share combine.
func BenchmarkRoundCriticalPath(b *testing.B) {
	const clients, servers, roundLen = 1024, 4, 1024
	seeds := paritySeeds(2, clients)
	pad := NewPad(crypto.NewAESPRNG)
	cts := make([][]byte, clients)
	for i := range cts {
		cts[i] = make([]byte, roundLen)
		crypto.NewFastPRNG(crypto.HashUint64(uint64(i))).Read(cts[i])
	}
	shares := make([][]byte, servers)
	for j := range shares {
		shares[j] = make([]byte, roundLen)
		crypto.NewFastPRNG(crypto.HashUint64(uint64(1000 + j))).Read(shares[j])
	}

	b.Run("batch", func(b *testing.B) {
		out := make([]byte, roundLen)
		b.SetBytes(int64(clients) * roundLen)
		for i := 0; i < b.N; i++ {
			share := pad.ServerPad(seeds, uint64(i), roundLen)
			for _, ct := range cts {
				crypto.XORBytes(share, ct)
			}
			clear(out)
			crypto.XORBytes(out, share)
			for _, s := range shares {
				crypto.XORBytes(out, s)
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		// Off the critical path (staged once): pad prefetched during the
		// window, ciphertexts accumulated as they arrived.
		pp := NewParallelPad(crypto.NewAESPRNG, 0)
		prefetch := make([]byte, roundLen)
		pp.ServerPadInto(prefetch, seeds, 1)
		acc := make([]byte, roundLen)
		for _, ct := range cts {
			crypto.XORBytes(acc, ct)
		}
		work := make([]byte, roundLen)
		out := make([]byte, roundLen)
		b.SetBytes(int64(clients) * roundLen)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// The critical path after the last submission: fold the
			// accumulator into the prefetched pad, then the M-share
			// combine. (The copy stands in for taking the buffer.)
			copy(work, prefetch)
			crypto.XORBytes(work, acc)
			clear(out)
			crypto.XORBytes(out, work)
			for _, s := range shares {
				crypto.XORBytes(out, s)
			}
		}
	})
}

// TestClientSubmitPathZeroAlloc is the allocation guard behind the
// benchmark: slot encode + prefetched-stream ciphertext build allocate
// nothing that scales with the vector — only the slot mask's AES key
// schedule and CTR state. The bound was 0 while the mask was a SHA-256
// counter-mode stream that needed no key setup; that zero cost the
// data-sharing shape (bulk-4) 4.5 ms of every 20.9 ms round, because
// every member unmasks every open 128 KiB slot at 248 MB/s.
func TestClientSubmitPathZeroAlloc(t *testing.T) {
	const servers, slotLen, vecLen = 8, 256, 1024
	seeds := paritySeeds(5, servers)
	pad := NewPad(crypto.NewAESPRNG)
	vec := make([]byte, vecLen)
	ct := make([]byte, vecLen)
	payload := SlotPayload{NextLen: slotLen, Data: make([]byte, slotLen-MinSlotLen)}
	rnd := crypto.NewFastPRNG(crypto.Hash("alloc-rnd", nil))

	const runs = 32
	streams := make([]*PadStreams, 0, runs+8)
	for i := 0; i < runs+8; i++ {
		streams = append(streams, pad.Prepare(seeds, uint64(i)))
	}
	var next int
	if avg := testing.AllocsPerRun(runs, func() {
		ps := streams[next]
		next++
		if err := EncodeSlot(vec[:slotLen], payload, rnd); err != nil {
			t.Fatal(err)
		}
		ps.CiphertextInto(ct, vec)
	}); avg > 2 {
		t.Fatalf("client submit path allocates %.1f times per op, want <= 2", avg)
	}
}

// TestServerPadParallelAllocSteadyState guards the server hot path:
// after the first round warms the lanes, parallel expansion allocates
// only the per-seed stream setup — no per-byte or per-lane churn.
func TestServerPadParallelAllocSteadyState(t *testing.T) {
	seeds := paritySeeds(6, 32)
	pp := NewParallelPad(crypto.NewAESPRNG, 4)
	dst := make([]byte, 2048)
	pp.ServerPadInto(dst, seeds, 0) // warm lanes
	perOp := testing.AllocsPerRun(16, func() {
		clear(dst)
		pp.ServerPadInto(dst, seeds, 1)
	})
	// One stream per seed costs a handful of allocations (hash, key
	// schedule, CTR state, goroutine bookkeeping); anything linear in
	// the vector length would blow well past this bound.
	if limit := float64(len(seeds)*8 + 64); perOp > limit {
		t.Fatalf("parallel pad allocates %.0f/op, want <= %.0f (stream setup only)", perOp, limit)
	}
}
