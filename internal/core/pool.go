package core

import "sync"

// bufPool recycles round-vector-sized byte buffers (client message
// vectors and ciphertexts, server pad accumulators, shares, and
// cleartexts). Round vectors dominate steady-state allocation — O(L)
// per client per round, O(N·L) per server per round — and their size is
// sticky (sched.Len() changes only when slots open/close), so a
// sync.Pool turns them into near-zero garbage.
//
// Ownership rule: a buffer may be put back only by the engine that got
// it, and only once nothing else aliases it — for buffers recorded in
// roundHistory that means at history eviction, not at round certify.
type bufPool struct {
	p sync.Pool
}

// get returns a zeroed buffer of length n.
func (bp *bufPool) get(n int) []byte {
	if v, ok := bp.p.Get().(*[]byte); ok && cap(*v) >= n {
		b := (*v)[:n]
		clear(b)
		return b
	}
	return make([]byte, n)
}

// put recycles a buffer. nil (or zero-capacity) buffers are ignored so
// callers can pass optional fields unconditionally.
func (bp *bufPool) put(b []byte) {
	if cap(b) == 0 {
		return
	}
	bp.p.Put(&b)
}

// padPrefetch is one in-flight background pad expansion at a server:
// launched when a round's submission window opens, consumed (or
// discarded) when the window closes. The goroutine writes only buf and
// then closes done; the engine reads buf only after receiving done, so
// the handoff is race-free.
type padPrefetch struct {
	round   uint64 // round the pad was expanded for
	version uint64 // roster version at launch (invalidates across churn)
	clients []int  // client indices covered, ascending
	buf     []byte // ⊕_i PRNG(K_i, round) over clients, pooled
	done    chan struct{}
}
