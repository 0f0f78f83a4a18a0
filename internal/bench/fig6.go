package bench

import (
	"fmt"
	"sort"
	"time"
)

// Figure 6 and the §5.1 window-policy table: message-exchange-time
// CDFs under four window-closure policies, replaying the same
// synthetic PlanetLab straggler trace against each policy.

// WindowPolicy is one §5.1 policy under test.
type WindowPolicy struct {
	Name string
	// Threshold is the submit fraction that arms the adaptive close;
	// 1.0 with Mult 0 means "wait for all clients or the hard timeout"
	// (the paper's baseline).
	Threshold float64
	Mult      float64
}

// Fig6Policies returns the paper's four policies.
func Fig6Policies() []WindowPolicy {
	return []WindowPolicy{
		{Name: "baseline-120s", Threshold: 1.0, Mult: 1.0},
		{Name: "1.1x", Threshold: 0.95, Mult: 1.1},
		{Name: "1.2x", Threshold: 0.95, Mult: 1.2},
		{Name: "2.0x", Threshold: 0.95, Mult: 2.0},
	}
}

// Fig6Result is one policy's outcome.
type Fig6Result struct {
	Policy WindowPolicy
	// Times are per-round exchange times (sorted), the CDF's samples.
	Times []time.Duration
	// MissedFrac is the mean fraction of online clients whose
	// ciphertext missed the submission window (the §5.1 table).
	MissedFrac float64
	// DeadlineFrac is the fraction of rounds that ran into the hard
	// deadline.
	DeadlineFrac float64
}

// Fig6Config sizes the experiment. The paper used >500 PlanetLab
// clients, 8 EC2 servers, a 120 s window, and a 24-hour trace.
type Fig6Config struct {
	Clients     int
	Servers     int
	Rounds      int
	HardTimeout time.Duration
	Seed        int64
}

// DefaultFig6Config returns the paper-scale configuration.
func DefaultFig6Config() Fig6Config {
	return Fig6Config{Clients: 500, Servers: 8, Rounds: 40, HardTimeout: 120 * time.Second, Seed: 61}
}

// QuickFig6Config returns a fast configuration for tests.
func QuickFig6Config() Fig6Config {
	return Fig6Config{Clients: 60, Servers: 4, Rounds: 10, HardTimeout: 30 * time.Second, Seed: 61}
}

// Fig6 runs every policy against the same delay trace.
func Fig6(cfg Fig6Config) ([]Fig6Result, error) {
	var results []Fig6Result
	for _, pol := range Fig6Policies() {
		profile := PlanetLab(cfg.Rounds+4, cfg.Clients, cfg.Seed)
		sc := SessionConfig{
			Servers:         cfg.Servers,
			Clients:         cfg.Clients,
			Profile:         profile,
			SlotLen:         192, // small chat slots
			MeasureCompute:  1.0,
			Alpha:           0, // isolate the window policy (§5.1)
			AlphaSet:        true,
			WindowThreshold: pol.Threshold,
			WindowMult:      pol.Mult,
			HardTimeout:     cfg.HardTimeout,
			WindowMin:       200 * time.Millisecond,
			Seed:            cfg.Seed,
		}
		s, err := BuildSession(sc)
		if err != nil {
			return nil, err
		}
		s.Bootstrap()
		s.RunRounds(uint64(cfg.Rounds+2), 80_000_000)
		if len(s.H.Errors) > 0 {
			return nil, fmt.Errorf("fig6 %s: %v", pol.Name, s.H.Errors[0])
		}

		res := Fig6Result{Policy: pol}
		deadline := 0
		var missedSum float64
		counted := 0
		for i, t := range s.spans() {
			if i < 2 || i >= 2+cfg.Rounds { // warmup / tail trim
				continue
			}
			res.Times = append(res.Times, t.Total)
			if t.Total >= cfg.HardTimeout {
				deadline++
			}
			// Online clients this round: those the trace lets submit.
			online := 0
			for ci := 0; ci < cfg.Clients; ci++ {
				if _, ok := profile.Delays.Delay(t.Round, ci); ok {
					online++
				}
			}
			counted++
			// Missed = online minus counted participation.
			if online > 0 && t.Participation < online {
				missedSum += float64(online-t.Participation) / float64(online)
			}
		}
		if counted > 0 {
			res.MissedFrac = missedSum / float64(counted)
			res.DeadlineFrac = float64(deadline) / float64(counted)
		}
		sort.Slice(res.Times, func(a, b int) bool { return res.Times[a] < res.Times[b] })
		results = append(results, res)
	}
	return results, nil
}

// CDF returns (x, F(x)) pairs for plotting from sorted samples.
func CDF(sorted []time.Duration) [][2]float64 {
	out := make([][2]float64, len(sorted))
	for i, d := range sorted {
		out[i] = [2]float64{d.Seconds(), float64(i+1) / float64(len(sorted))}
	}
	return out
}
