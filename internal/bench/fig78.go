package bench

import (
	"fmt"
	"time"
)

// Figures 7 and 8: time per DC-net round versus client count (Fig. 7,
// 32 servers) and versus server count (Fig. 8, 640 clients), in the
// microblog scenario (1% of clients submit 128-byte messages each
// round) and the data-sharing scenario (one client transmits 128 KB
// per round), split into client-submission and server-processing time.

// Scenario is one of the paper's two §5.2 workloads.
type Scenario struct {
	Name string
	// SenderFrac of clients transmit each round (microblog: 0.01).
	SenderFrac float64
	// MsgBytes per sender per round.
	MsgBytes int
	// Bulk marks the single-sender 128 KB scenario.
	Bulk bool
}

// Microblog returns the 1%-submit 128-byte scenario.
func Microblog() Scenario {
	return Scenario{Name: "microblog-1pct-128B", SenderFrac: 0.01, MsgBytes: 128}
}

// DataSharing returns the single-sender 128 KB scenario.
func DataSharing() Scenario {
	return Scenario{Name: "datashare-128KB", MsgBytes: 128 << 10, Bulk: true}
}

// ScaleRow is one point of Fig. 7 or Fig. 8.
type ScaleRow struct {
	Clients  int
	Servers  int
	Scenario string
	Profile  string
	Submit   time.Duration
	Process  time.Duration
	Total    time.Duration
	Rounds   int
}

// RunScalePoint runs one (servers, clients, scenario, profile)
// configuration for the given number of measured rounds.
func RunScalePoint(servers, clients int, sc Scenario, profile Profile, rounds int, seed int64) (ScaleRow, error) {
	slotLen := 192
	maxSlot := 0
	if sc.Bulk {
		// One slot carries the 128 KB payload; room for overhead.
		maxSlot = sc.MsgBytes + 4096
	}
	cfg := SessionConfig{
		Servers:        servers,
		Clients:        clients,
		Profile:        profile,
		SlotLen:        slotLen,
		MaxSlotLen:     maxSlot,
		MeasureCompute: 1.0,
		Alpha:          0.9,
		AlphaSet:       true,
		HardTimeout:    120 * time.Second,
		WindowMin:      100 * time.Millisecond,
		Seed:           seed,
	}
	s, err := BuildSession(cfg)
	if err != nil {
		return ScaleRow{}, err
	}

	// Queue the workload before bootstrapping: senders carry a backlog
	// so every measured round bears the scenario's load.
	warmup := 2
	total := warmup + rounds + 2
	if sc.Bulk {
		for i := 0; i < total+2; i++ {
			s.Clients[0].Send(make([]byte, sc.MsgBytes))
		}
	} else {
		senders := int(float64(clients)*sc.SenderFrac + 0.5)
		if senders < 1 {
			senders = 1
		}
		stride := clients / senders
		if stride < 1 {
			stride = 1
		}
		for i := 0; i < clients; i += stride {
			for k := 0; k < total+2; k++ {
				s.Clients[i].Send(make([]byte, sc.MsgBytes))
			}
		}
	}

	s.Bootstrap()
	s.RunRounds(uint64(total), 200_000_000)
	if len(s.H.Errors) > 0 {
		return ScaleRow{}, fmt.Errorf("scale point %d/%d: %v", servers, clients, s.H.Errors[0])
	}
	// Server 0's spans give the paper's split: the submission window,
	// then server processing to the certified output.
	spans := s.spans()
	spans = spans[min(warmup, len(spans)):]
	var submit, process, totalT time.Duration
	for _, t := range spans {
		submit += t.Window
		process += t.Total - t.Window
		totalT += t.Total
	}
	if n := time.Duration(len(spans)); n > 0 {
		submit, process, totalT = submit/n, process/n, totalT/n
	}
	return ScaleRow{
		Clients: clients, Servers: servers,
		Scenario: sc.Name, Profile: profile.Name,
		Submit: submit, Process: process, Total: totalT, Rounds: len(spans),
	}, nil
}

// Fig7Config sizes the client-scaling sweep.
type Fig7Config struct {
	Servers     int
	ClientSizes []int
	Rounds      int
	Seed        int64
	// PlanetLabMicro additionally runs the microblog scenario on the
	// wide-area profile, as in the paper.
	PlanetLabMicro bool
}

// DefaultFig7Config matches the paper's sweep (32 servers, 32–5120
// clients).
func DefaultFig7Config() Fig7Config {
	return Fig7Config{
		Servers:        32,
		ClientSizes:    []int{32, 100, 320, 1000, 2048, 5120},
		Rounds:         3,
		Seed:           71,
		PlanetLabMicro: true,
	}
}

// QuickFig7Config is a scaled-down sweep for tests.
func QuickFig7Config() Fig7Config {
	return Fig7Config{Servers: 8, ClientSizes: []int{16, 48}, Rounds: 2, Seed: 71}
}

// Fig7 runs the client-scaling sweep.
func Fig7(cfg Fig7Config) ([]ScaleRow, error) {
	var rows []ScaleRow
	for _, n := range cfg.ClientSizes {
		for _, sc := range []Scenario{Microblog(), DataSharing()} {
			row, err := RunScalePoint(cfg.Servers, n, sc, DeterLab(), cfg.Rounds, cfg.Seed)
			if err != nil {
				return rows, err
			}
			rows = append(rows, row)
		}
		if cfg.PlanetLabMicro {
			pl := PlanetLab(cfg.Rounds+8, n, cfg.Seed)
			row, err := RunScalePoint(cfg.Servers, n, Microblog(), pl, cfg.Rounds, cfg.Seed)
			if err != nil {
				return rows, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Fig8Config sizes the server-scaling sweep.
type Fig8Config struct {
	Clients     int
	ServerSizes []int
	Rounds      int
	Seed        int64
}

// DefaultFig8Config matches the paper (640 clients, 1–32 servers).
func DefaultFig8Config() Fig8Config {
	return Fig8Config{Clients: 640, ServerSizes: []int{1, 2, 4, 10, 24, 32}, Rounds: 3, Seed: 81}
}

// QuickFig8Config is a scaled-down sweep for tests.
func QuickFig8Config() Fig8Config {
	return Fig8Config{Clients: 32, ServerSizes: []int{1, 4}, Rounds: 2, Seed: 81}
}

// Fig8 runs the server-scaling sweep.
func Fig8(cfg Fig8Config) ([]ScaleRow, error) {
	var rows []ScaleRow
	for _, m := range cfg.ServerSizes {
		for _, sc := range []Scenario{Microblog(), DataSharing()} {
			row, err := RunScalePoint(m, cfg.Clients, sc, DeterLab(), cfg.Rounds, cfg.Seed)
			if err != nil {
				return rows, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
