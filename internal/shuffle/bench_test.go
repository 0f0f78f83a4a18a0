package shuffle

import (
	"fmt"
	"math/big"
	"sync/atomic"
	"testing"

	"dissent/internal/crypto"
)

// countingGroup counts scalar multiplications. It hides the concrete
// group, so P-256's combined k·G + l·P counts (and runs) as the two
// multiplications it stands for.
type countingGroup struct {
	crypto.Group
	mults atomic.Int64
}

func (c *countingGroup) ScalarMult(a crypto.Element, k *big.Int) crypto.Element {
	c.mults.Add(1)
	return c.Group.ScalarMult(a, k)
}

func (c *countingGroup) BaseMult(k *big.Int) crypto.Element {
	c.mults.Add(1)
	return c.Group.BaseMult(k)
}

// benchShuffle times the accountability path as a deployment runs it:
// three servers, one n x 1 list, every step proved, encoded, decoded
// and verified (Run). Client-side input preparation is outside the
// timer; mults/item comes from one extra untimed pass on a counting
// group, skipped above n = 64 where it would only repeat the number.
func benchShuffle(b *testing.B, g crypto.Group, n int) {
	const servers = 3
	kps := make([]*crypto.KeyPair, servers)
	pubs := make([]crypto.Element, servers)
	for i := range kps {
		kps[i], _ = crypto.GenerateKeyPair(g, nil)
		pubs[i] = kps[i].Public
	}
	in := make([]Vec, n)
	for i := range in {
		e, err := g.RandomElement(nil)
		if err != nil {
			b.Fatal(err)
		}
		if in[i], err = PrepareInput(g, pubs, []crypto.Element{e}, nil); err != nil {
			b.Fatal(err)
		}
	}
	var steps []*StepOutput
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if _, steps, err = Run(g, kps, in, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	items := float64(servers * n)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/item")
	stepBytes := 0
	for _, s := range steps {
		stepBytes += len(EncodeStepOutput(g, s))
	}
	b.ReportMetric(float64(stepBytes)/items, "step_bytes/item")
	if n <= 64 {
		cg := &countingGroup{Group: g}
		if _, _, err := Run(cg, kps, in, nil); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(cg.mults.Load())/items, "mults/item")
	}
}

func BenchmarkKeyShuffle(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("P-256/N=%d", n), func(b *testing.B) { benchShuffle(b, crypto.P256(), n) })
	}
}

func BenchmarkMessageShuffle(b *testing.B) {
	b.Run("modp-2048/N=16", func(b *testing.B) { benchShuffle(b, crypto.ModP2048(), 16) })
}
