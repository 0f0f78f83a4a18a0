package bench

import (
	"bytes"
	"fmt"
	"time"

	"dissent/internal/browse"
	"dissent/internal/core"
	"dissent/internal/relay"
	"dissent/internal/simnet"
)

// Figures 10–11: Alexa-Top-100 page download times under four
// configurations (§5.4): direct access, the onion-relay baseline
// ("Tor"), a local-area Dissent group, and Dissent composed with the
// relay baseline. Direct and relay runs use the workload model alone;
// the Dissent runs stream pages through the *real* protocol engines —
// a 5-server/24-client group on the Emulab WiFi topology — with the
// exit node fetching from origins through the respective upstream.

// Fig10Config sizes the browsing experiment.
type Fig10Config struct {
	Pages    int
	Servers  int
	Clients  int
	Parallel int
	Seed     int64
}

// DefaultFig10Config matches §5.4: 5 servers, 24 clients, 100 pages.
func DefaultFig10Config() Fig10Config {
	return Fig10Config{Pages: 100, Servers: 5, Clients: 24, Parallel: 6, Seed: 101}
}

// QuickFig10Config is a scaled-down run for tests.
func QuickFig10Config() Fig10Config {
	return Fig10Config{Pages: 6, Servers: 3, Clients: 8, Parallel: 6, Seed: 101}
}

// Fig10Result holds per-configuration download-time samples.
type Fig10Result struct {
	Config string
	Stats  browse.Stats
}

// torFetcher adapts a relay circuit to the browse.Fetcher interface.
type torFetcher struct {
	circ *relay.Circuit
}

func (t *torFetcher) Fetch(net *simnet.Network, reqLen, respLen int, originRTT time.Duration, done func(at time.Time)) {
	// Half the origin RTT is the exit→origin leg latency; the origin
	// "think time" is folded into the RTT already.
	t.circ.Exit.Latency = originRTT / 2
	t.circ.RoundTrip(net, reqLen, respLen, 30*time.Millisecond, done)
}

// directAccess returns the un-anonymized LAN fetcher used for the
// "no anonymity" line and for the Dissent exit node's origin access.
// The per-connection ceiling models 2012-era wide-area TCP throughput
// from the testbed to real origins; it is the constant calibrated so
// the direct configuration lands near the paper's ~10 s per ~1 MB.
func directAccess() *browse.DirectFetcher {
	return browse.NewDirectFetcher(
		simnet.Link{Latency: 10 * time.Millisecond, Bandwidth: simnet.Mbps(24)},
		simnet.Mbps(0.9))
}

// Fig10 runs all four configurations over the same page corpus.
func Fig10(cfg Fig10Config) ([]Fig10Result, error) {
	corpus := browse.GenerateCorpus(browse.Alexa2012())
	if cfg.Pages < len(corpus) {
		corpus = corpus[:cfg.Pages]
	}

	var results []Fig10Result

	// Direct.
	direct, err := runModelOnly(corpus, cfg.Parallel, func(net *simnet.Network) browse.Fetcher {
		return directAccess()
	})
	if err != nil {
		return nil, err
	}
	results = append(results, Fig10Result{Config: "direct", Stats: direct})

	// Relay baseline ("Tor").
	torNet := relay.NewNetwork(relay.DefaultTorParams())
	tor, err := runModelOnly(corpus, cfg.Parallel, func(net *simnet.Network) browse.Fetcher {
		circ, err := torNet.BuildCircuit(50 * time.Millisecond)
		if err != nil {
			panic(err)
		}
		return &torFetcher{circ: circ}
	})
	if err != nil {
		return nil, err
	}
	results = append(results, Fig10Result{Config: "tor", Stats: tor})

	// Dissent (LAN), exit fetching directly.
	dd, err := runDissentBrowse(cfg, corpus, func(net *simnet.Network) browse.Fetcher {
		return directAccess()
	})
	if err != nil {
		return nil, err
	}
	results = append(results, Fig10Result{Config: "dissent", Stats: dd})

	// Dissent + Tor: the exit node reaches origins through the relay
	// baseline; DC-net streaming overlaps the relay fetch waves.
	torNet2 := relay.NewNetwork(relay.DefaultTorParams())
	dt, err := runDissentBrowse(cfg, corpus, func(net *simnet.Network) browse.Fetcher {
		circ, err := torNet2.BuildCircuit(50 * time.Millisecond)
		if err != nil {
			panic(err)
		}
		return &torFetcher{circ: circ}
	})
	if err != nil {
		return nil, err
	}
	results = append(results, Fig10Result{Config: "dissent+tor", Stats: dt})

	return results, nil
}

// runModelOnly downloads the corpus over a fetcher without Dissent.
func runModelOnly(corpus []browse.Page, parallel int, mk func(net *simnet.Network) browse.Fetcher) (browse.Stats, error) {
	var stats browse.Stats
	net := simnet.New(time.Unix(0, 0))
	var runPage func(i int)
	runPage = func(i int) {
		if i >= len(corpus) {
			return
		}
		start := net.Now()
		f := mk(net) // fresh circuit per page
		browse.DownloadPage(net, f, corpus[i], parallel, func(at time.Time) {
			stats.Add(at.Sub(start))
			net.Schedule(at, func(time.Time) { runPage(i + 1) })
		})
	}
	runPage(0)
	net.Run(0)
	if len(stats.Times) != len(corpus) {
		return stats, fmt.Errorf("browse: %d/%d pages completed", len(stats.Times), len(corpus))
	}
	return stats, nil
}

// runDissentBrowse streams the corpus through a real Dissent group:
// the requesting client sends a request into its slot; the exit client
// sees it, fetches the page from the origin via the supplied fetcher,
// and streams bytes back through its own slot as resources arrive.
func runDissentBrowse(cfg Fig10Config, corpus []browse.Page, mkOrigin func(net *simnet.Network) browse.Fetcher) (browse.Stats, error) {
	s, err := BuildSession(SessionConfig{
		Servers:        cfg.Servers,
		Clients:        cfg.Clients,
		Profile:        EmulabWiFi(),
		SlotLen:        1024,
		MaxSlotLen:     64 << 10,
		MeasureCompute: 1.0,
		Alpha:          0.9,
		AlphaSet:       true,
		WindowMin:      20 * time.Millisecond,
		HardTimeout:    60 * time.Second,
		Seed:           cfg.Seed,
	})
	if err != nil {
		return browse.Stats{}, err
	}

	requester := s.Clients[0]
	exit := s.Clients[len(s.Clients)-1]
	reqMarker := []byte("DISSENT-REQ:")

	var stats browse.Stats
	page := 0
	var pageStart time.Time
	received := 0
	expecting := 0
	requesterID := requester.ID()

	var startPage func(t time.Time)
	startPage = func(t time.Time) {
		if page >= len(corpus) {
			return
		}
		pageStart = t
		received = 0
		expecting = corpus[page].TotalBytes()
		req := append(append([]byte(nil), reqMarker...), []byte(corpus[page].Name)...)
		requester.Send(req)
	}

	s.H.OnDelivery = func(d core.TimedDelivery) {
		// The exit node reacts to requests appearing in any slot.
		if d.Node == exit.ID() && bytes.HasPrefix(d.Data, reqMarker) {
			p := corpus[page]
			origin := mkOrigin(s.H.Net)
			browse.DownloadPageProgress(s.H.Net, origin, p, cfg.Parallel,
				func(at time.Time, n int) {
					// Stream each fetched resource into the exit's slot.
					s.H.Net.Schedule(at, func(time.Time) {
						exit.Send(make([]byte, n))
					})
				},
				func(at time.Time) {})
			return
		}
		// The requester counts bytes arriving in the exit's slot.
		if d.Node == requesterID && d.Slot == exit.Slot() && expecting > 0 &&
			!bytes.HasPrefix(d.Data, reqMarker) {
			received += len(d.Data)
			if received >= expecting {
				stats.Add(d.At.Sub(pageStart))
				expecting = 0
				page++
				s.H.Net.Schedule(d.At, startPage)
			}
		}
	}

	s.Bootstrap()
	// Kick off the first page once the schedule settles.
	s.H.Net.Schedule(s.H.Net.Now().Add(time.Second), startPage)

	// Drive until all pages complete or the budget runs out.
	var steps int64
	for steps < 400_000_000 && page < len(corpus) {
		if !s.H.Net.Step() {
			break
		}
		steps++
	}
	if len(s.H.Errors) > 0 {
		return stats, fmt.Errorf("dissent browse: %v", s.H.Errors[0])
	}
	if page < len(corpus) {
		return stats, fmt.Errorf("dissent browse: %d/%d pages completed", page, len(corpus))
	}
	return stats, nil
}
