package bench

import (
	"fmt"
	"time"

	"dissent/internal/crypto"
	"dissent/internal/shuffle"
	"dissent/internal/simnet"
)

// Figure 9: time for each stage of a whole protocol run — key shuffle,
// one DC-net exchange, accusation (blame) shuffle, and blame
// evaluation — for 24–1000 clients over 24 servers with 128-byte
// messages.
//
// The shuffle stages are priced by the analytic operation-count model
// (see package comment): a real mix of 1000 accusations in the
// 2048-bit message group over 24 servers is most of an hour of serial
// big-integer arithmetic, the regime the paper reports (>1 h for its
// 1000-client accusation shuffle). Fig9Validate cross-checks the model
// against real executions at small N.

// Fig9Row is one client-count's stage breakdown.
type Fig9Row struct {
	Clients      int
	KeyShuffle   time.Duration
	DCNetRound   time.Duration
	BlameShuffle time.Duration
	BlameEval    time.Duration
}

// Fig9Config sizes the sweep.
type Fig9Config struct {
	Servers     int
	ClientSizes []int
	MsgBytes    int
}

// DefaultFig9Config matches the paper's sweep.
func DefaultFig9Config() Fig9Config {
	return Fig9Config{
		Servers:     24,
		ClientSizes: []int{24, 100, 500, 1000},
		MsgBytes:    128,
	}
}

// Fig9 evaluates the stage model across the sweep.
func Fig9(cfg Fig9Config) []Fig9Row {
	m := Calibrate()
	prof := DeterLab()
	rows := make([]Fig9Row, 0, len(cfg.ClientSizes))
	for _, n := range cfg.ClientSizes {
		roundBytes := (n+7)/8 + n*(cfg.MsgBytes+32) // request bits + open slots
		dc := DCNetParams{
			Servers:         cfg.Servers,
			Clients:         n,
			RoundBytes:      roundBytes,
			ClientLatency:   prof.ClientLatency,
			ServerLatency:   prof.ServerLatency,
			ServerBandwidth: prof.ServerBandwidth,
			ClientBandwidth: prof.ClientBandwidth,
		}
		rows = append(rows, Fig9Row{
			Clients: n,
			KeyShuffle: ShuffleTime(ecCosts(m), ShuffleParams{
				Servers: cfg.Servers, Inputs: n, Width: 1,
				ServerBandwidth: prof.ServerBandwidth, ServerLatency: prof.ServerLatency,
			}),
			DCNetRound: DCNetRoundTime(m, dc),
			BlameShuffle: ShuffleTime(modpCosts(m), ShuffleParams{
				Servers: cfg.Servers, Inputs: n, Width: AccusationWidth(),
				ServerBandwidth: prof.ServerBandwidth, ServerLatency: prof.ServerLatency,
			}),
			BlameEval: BlameEvalTime(m, dc),
		})
	}
	return rows
}

// Fig9Validation compares the analytic model against a real execution
// of the same shuffle at small scale. Each model time is given twice,
// from a calibration taken just before the real runs and one taken just
// after: the real time is wall-clock on a possibly shared host, and
// whatever slowed it slowed the calibration beside it too.
type Fig9Validation struct {
	Servers, Clients int
	KeyShuffleReal   time.Duration
	KeyShuffleModel  [2]time.Duration // calibrated before, after
	MsgShuffleReal   time.Duration
	MsgShuffleModel  [2]time.Duration
}

// Fig9Validate runs a real key shuffle (P-256) and a real message
// shuffle (modp-512 scaled to modp-2048 cost by the calibration ratio)
// and reports model agreement. The real runs execute the actual
// shuffle.Run pipeline, including every proof and verification.
func Fig9Validate(servers, clients int) (Fig9Validation, error) {
	before := calibrate() // fresh, not Calibrate's cached model: see Fig9Validation
	v := Fig9Validation{Servers: servers, Clients: clients}

	// Real key shuffle on P-256.
	g := crypto.P256()
	srvKPs := make([]*crypto.KeyPair, servers)
	for i := range srvKPs {
		srvKPs[i], _ = crypto.GenerateKeyPair(g, nil)
	}
	keys := make([]crypto.Element, clients)
	for i := range keys {
		kp, _ := crypto.GenerateKeyPair(g, nil)
		keys[i] = kp.Public
	}
	t0 := time.Now()
	if _, err := shuffle.KeyShuffle(g, srvKPs, keys, nil); err != nil {
		return v, err
	}
	v.KeyShuffleReal = time.Since(t0)

	// Real message shuffle on the 2048-bit production group, kept small.
	mg := crypto.ModP2048()
	msrvKPs := make([]*crypto.KeyPair, servers)
	for i := range msrvKPs {
		kp, err := crypto.GenerateKeyPair(mg, nil)
		if err != nil {
			return v, err
		}
		msrvKPs[i] = kp
	}
	msgs := make([][]byte, clients)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("validation message %d", i))
	}
	t0 = time.Now()
	if _, err := shuffle.MessageShuffle(mg, msrvKPs, msgs, 1, nil); err != nil {
		return v, err
	}
	v.MsgShuffleReal = time.Since(t0)
	// The model charges only compute when bandwidth/latency are zero.
	params := ShuffleParams{Servers: servers, Inputs: clients, Width: 1}
	for i, m := range []CostModel{before, calibrate()} {
		v.KeyShuffleModel[i] = ShuffleTime(ecCosts(m), params)
		v.MsgShuffleModel[i] = ShuffleTime(modpCosts(m), params)
	}
	return v, nil
}

var _ = simnet.Mbps // keep import if formulas change
