package crypto

import (
	"math/big"
	"runtime"
	"sync"
)

// ForChunks splits [0,n) into min(GOMAXPROCS, n) contiguous ranges,
// runs fn on each in its own goroutine and returns once all have
// finished. Group arithmetic on distinct items is independent, so the
// batch proofs fan their per-item loops out through it; with one
// processor or one item fn runs on the caller's goroutine.
func ForChunks(n int, fn func(lo, hi int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
	wg.Wait()
}

// MultiScalarMult returns Σ ks[i]·elems[i], one partial sum per
// ForChunks worker. The group is commutative, so the result does not
// depend on the order the partial sums arrive in.
func MultiScalarMult(g Group, elems []Element, ks []*big.Int) Element {
	var mu sync.Mutex
	sum := g.Identity()
	ForChunks(len(elems), func(lo, hi int) {
		part := g.Identity()
		for i := lo; i < hi; i++ {
			part = g.Add(part, g.ScalarMult(elems[i], ks[i]))
		}
		mu.Lock()
		sum = g.Add(sum, part)
		mu.Unlock()
	})
	return sum
}

// BaseMultAdd returns k·G + l·a. P-256 does it in one combined
// multiplication; other groups compose it from the Group interface.
func BaseMultAdd(g Group, k *big.Int, a Element, l *big.Int) Element {
	if ec, ok := g.(*ECGroup); ok {
		return ec.BaseMultAdd(k, a, l)
	}
	return g.Add(g.BaseMult(k), g.ScalarMult(a, l))
}
