package dissent

// One benchmark per table/figure of the paper's evaluation (§5), each
// running a scaled-down configuration of the exact harness behind
// cmd/dissent-bench (the full-scale sweeps take minutes to hours; run
// those via `go run ./cmd/dissent-bench -exp all`). The ablation
// benchmarks quantify the design choices ARCHITECTURE.md describes:
// M server-shared pads instead of all-pairs, key versus accusation
// shuffles, the pad PRNG, and the servers' ciphertext combine.

import (
	"testing"

	"dissent/internal/bench"
	"dissent/internal/crypto"
	"dissent/internal/dcnet"
	"dissent/internal/shuffle"
)

// BenchmarkWindowPolicyTable regenerates the §5.1 missed-client table.
func BenchmarkWindowPolicyTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig6(bench.QuickFig6Config())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			b.ReportMetric(r.MissedFrac*100, "missed%/"+r.Policy.Name)
		}
	}
}

// BenchmarkFig6WindowPolicies regenerates the exchange-time CDFs.
func BenchmarkFig6WindowPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig6(bench.QuickFig6Config())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			med := r.Times[len(r.Times)/2]
			b.ReportMetric(med.Seconds(), "median-s/"+r.Policy.Name)
		}
	}
}

// BenchmarkFig7Scaling regenerates the client-scaling sweep (Fig. 7).
func BenchmarkFig7Scaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig7(bench.QuickFig7Config())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Total.Seconds(), "round-s/"+r.Scenario)
		}
	}
}

// BenchmarkFig8Servers regenerates the server-scaling sweep (Fig. 8).
func BenchmarkFig8Servers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig8(bench.QuickFig8Config())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Total.Seconds(), "round-s/"+r.Scenario)
		}
	}
}

// BenchmarkFig9FullProtocol regenerates the stage breakdown (Fig. 9).
func BenchmarkFig9FullProtocol(b *testing.B) {
	cfg := bench.DefaultFig9Config()
	for i := 0; i < b.N; i++ {
		rows := bench.Fig9(cfg)
		last := rows[len(rows)-1]
		b.ReportMetric(last.KeyShuffle.Seconds(), "keyshuffle-s@1000")
		b.ReportMetric(last.BlameShuffle.Seconds(), "blameshuffle-s@1000")
	}
}

// BenchmarkFig10WebBrowsing regenerates the browsing comparison
// (Figs. 10–11).
func BenchmarkFig10WebBrowsing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig10(bench.QuickFig10Config())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			b.ReportMetric(r.Stats.Mean().Seconds(), "page-s/"+r.Config)
		}
	}
}

// --- Ablations ---------------------------------------------------------

// BenchmarkAblationClientPads compares the per-round client compute of
// Dissent's anytrust design (M = 16 server-shared pads) against a
// classic all-pairs DC-net (N-1 = 1023 peer-shared pads) for the same
// 1 KiB round vector — the §3.4 O(M) vs O(N) claim.
func BenchmarkAblationClientPads(b *testing.B) {
	const roundLen = 1024
	mkSeeds := func(n int) [][]byte {
		seeds := make([][]byte, n)
		for i := range seeds {
			seeds[i] = crypto.Hash("ablation", crypto.HashUint64(uint64(i)))
		}
		return seeds
	}
	msg, ct := make([]byte, roundLen), make([]byte, roundLen)
	b.Run("anytrust-16-servers", func(b *testing.B) {
		pad := dcnet.NewPad(crypto.NewAESPRNG)
		seeds := mkSeeds(16)
		b.SetBytes(roundLen)
		for i := 0; i < b.N; i++ {
			pad.ClientCiphertextInto(ct, seeds, uint64(i), msg)
		}
	})
	b.Run("allpairs-1024-peers", func(b *testing.B) {
		pad := dcnet.NewPad(crypto.NewAESPRNG)
		seeds := mkSeeds(1023)
		b.SetBytes(roundLen)
		for i := 0; i < b.N; i++ {
			pad.ClientCiphertextInto(ct, seeds, uint64(i), msg)
		}
	})
}

// BenchmarkAblationShuffleKinds compares a key shuffle (P-256, bare
// group elements) against a general message shuffle (2048-bit mod-p,
// embedded messages) at identical small scale — the §3.10 asymmetry
// that shapes Figure 9.
func BenchmarkAblationShuffleKinds(b *testing.B) {
	const servers, clients = 2, 6
	b.Run("key-shuffle-p256", func(b *testing.B) {
		g := crypto.P256()
		srv := make([]*crypto.KeyPair, servers)
		for i := range srv {
			srv[i], _ = crypto.GenerateKeyPair(g, nil)
		}
		keys := make([]crypto.Element, clients)
		for i := range keys {
			kp, _ := crypto.GenerateKeyPair(g, nil)
			keys[i] = kp.Public
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := shuffle.KeyShuffle(g, srv, keys, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("msg-shuffle-modp2048", func(b *testing.B) {
		g := crypto.ModP2048()
		srv := make([]*crypto.KeyPair, servers)
		for i := range srv {
			srv[i], _ = crypto.GenerateKeyPair(g, nil)
		}
		msgs := make([][]byte, clients)
		for i := range msgs {
			msgs[i] = []byte("an accusation-sized anonymous message payload....................")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := shuffle.MessageShuffle(g, srv, msgs, 1, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationPRNG compares the production AES-CTR stream against
// the benchmark-harness xoshiro stream.
func BenchmarkAblationPRNG(b *testing.B) {
	buf := make([]byte, 1<<20)
	for name, mk := range map[string]crypto.PRNGMaker{
		"aes-ctr": crypto.NewAESPRNG, "xoshiro": crypto.NewFastPRNG,
	} {
		b.Run(name, func(b *testing.B) {
			p := mk(crypto.Hash("bench", nil))
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				p.XORKeyStream(buf, buf)
			}
		})
	}
}

// BenchmarkAblationServerCombine measures server-side pad generation —
// the O(N) work the anytrust model concentrates on provisioned
// servers (§3.4) — at two anonymity-set sizes.
func BenchmarkAblationServerCombine(b *testing.B) {
	const roundLen = 1024
	for _, n := range []int{128, 1024} {
		seeds := make([][]byte, n)
		for i := range seeds {
			seeds[i] = crypto.Hash("srv", crypto.HashUint64(uint64(i)))
		}
		b.Run(itoa(n)+"-clients", func(b *testing.B) {
			pad := dcnet.NewPad(crypto.NewAESPRNG)
			share := make([]byte, roundLen)
			b.SetBytes(int64(n) * roundLen)
			for i := 0; i < b.N; i++ {
				pad.ServerPadInto(share, seeds, uint64(i))
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
