// Command dissent-bench regenerates every table and figure of the
// paper's evaluation (§5).
//
// Usage:
//
//	dissent-bench -exp all            # everything (takes a while)
//	dissent-bench -exp fig7 -quick    # one experiment, scaled down
//
// Experiments: window-policy (the §5.1 table), fig6, fig7, fig8, fig9,
// fig10, fig11, all. Output is plain text: one series per block,
// "x y ..." rows suitable for gnuplot.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"dissent/internal/bench"
)

var clientsOverride []int

func main() {
	exp := flag.String("exp", "all", "experiment: window-policy|fig6|fig7|fig8|fig9|fig10|fig11|all")
	quick := flag.Bool("quick", false, "scaled-down configurations")
	clients := flag.String("clients", "", "comma-separated client counts overriding fig7's sweep")
	flag.Parse()
	log.SetFlags(0)
	if *clients != "" {
		for _, part := range strings.Split(*clients, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "bad -clients value %q\n", part)
				os.Exit(2)
			}
			clientsOverride = append(clientsOverride, n)
		}
	}

	run := map[string]func(bool){
		"window-policy": runWindowPolicy,
		"fig6":          runFig6,
		"fig7":          runFig7,
		"fig8":          runFig8,
		"fig9":          runFig9,
		"fig10":         func(q bool) { runFig10(q, false) },
		"fig11":         func(q bool) { runFig10(q, true) },
	}
	if *exp == "all" {
		for _, name := range []string{"window-policy", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"} {
			fmt.Printf("\n===== %s =====\n", name)
			run[name](*quick)
		}
		return
	}
	fn, ok := run[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	fn(*quick)
}

func fig6Config(quick bool) bench.Fig6Config {
	if quick {
		return bench.QuickFig6Config()
	}
	return bench.DefaultFig6Config()
}

func runWindowPolicy(quick bool) {
	fmt.Println("# §5.1 window-closure policy table")
	fmt.Println("# paper: 1.1x: 2.3%, 1.2x: 1.5%, 2x: 0.5% of clients missed the window")
	results, err := bench.Fig6(fig6Config(quick))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-15s %-14s %s\n", "policy", "missed-clients", "rounds-at-hard-deadline")
	for _, r := range results {
		fmt.Printf("%-15s %-14s %.1f%%\n", r.Policy.Name,
			fmt.Sprintf("%.1f%%", r.MissedFrac*100), r.DeadlineFrac*100)
	}
}

func runFig6(quick bool) {
	fmt.Println("# Figure 6: CDF of message exchange time per window policy")
	results, err := bench.Fig6(fig6Config(quick))
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		fmt.Printf("\n## policy %s (exchange-time-seconds cumulative-fraction)\n", r.Policy.Name)
		for _, pt := range bench.CDF(r.Times) {
			fmt.Printf("%.3f %.4f\n", pt[0], pt[1])
		}
	}
}

func runFig7(quick bool) {
	fmt.Println("# Figure 7: time per round vs clients (32 servers)")
	cfg := bench.DefaultFig7Config()
	if quick {
		cfg = bench.QuickFig7Config()
	}
	if len(clientsOverride) > 0 {
		cfg.ClientSizes = clientsOverride
	}
	rows, err := bench.Fig7(cfg)
	if err != nil {
		log.Fatal(err)
	}
	printScaleRows(rows)
}

func runFig8(quick bool) {
	fmt.Println("# Figure 8: time per round vs servers (640 clients)")
	cfg := bench.DefaultFig8Config()
	if quick {
		cfg = bench.QuickFig8Config()
	}
	rows, err := bench.Fig8(cfg)
	if err != nil {
		log.Fatal(err)
	}
	printScaleRows(rows)
}

func printScaleRows(rows []bench.ScaleRow) {
	fmt.Printf("%-8s %-8s %-22s %-10s %-12s %-12s %-12s\n",
		"clients", "servers", "scenario", "profile", "submission", "processing", "total")
	for _, r := range rows {
		fmt.Printf("%-8d %-8d %-22s %-10s %-12s %-12s %-12s\n",
			r.Clients, r.Servers, r.Scenario, r.Profile,
			fmtDur(r.Submit), fmtDur(r.Process), fmtDur(r.Total))
	}
}

func runFig9(quick bool) {
	fmt.Println("# Figure 9: full protocol run breakdown (24 servers, 128-byte messages)")
	cfg := bench.DefaultFig9Config()
	if quick {
		cfg.ClientSizes = []int{24, 100}
	}
	rows := bench.Fig9(cfg)
	fmt.Printf("%-8s %-14s %-14s %-16s %-14s\n",
		"clients", "key-shuffle", "dcnet-round", "blame-shuffle", "blame-eval")
	for _, r := range rows {
		fmt.Printf("%-8d %-14s %-14s %-16s %-14s\n", r.Clients,
			fmtDur(r.KeyShuffle), fmtDur(r.DCNetRound), fmtDur(r.BlameShuffle), fmtDur(r.BlameEval))
	}
	vServers, vClients := 3, 12
	if !quick {
		vServers, vClients = 4, 24
	}
	fmt.Printf("\n# model validation against real shuffle execution (%d servers, %d clients)\n",
		vServers, vClients)
	v, err := bench.Fig9Validate(vServers, vClients)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("key shuffle: real %-12s model %s (calibrated before) / %s (after)\n",
		fmtDur(v.KeyShuffleReal), fmtDur(v.KeyShuffleModel[0]), fmtDur(v.KeyShuffleModel[1]))
	fmt.Printf("msg shuffle: real %-12s model %s (calibrated before) / %s (after)\n",
		fmtDur(v.MsgShuffleReal), fmtDur(v.MsgShuffleModel[0]), fmtDur(v.MsgShuffleModel[1]))
}

func runFig10(quick, cdf bool) {
	if cdf {
		fmt.Println("# Figure 11: CDF of page download times")
	} else {
		fmt.Println("# Figure 10: Alexa-Top-100 download times per configuration")
	}
	cfg := bench.DefaultFig10Config()
	if quick {
		cfg = bench.QuickFig10Config()
	}
	results, err := bench.Fig10(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if cdf {
		for _, r := range results {
			fmt.Printf("\n## config %s (download-seconds cumulative-fraction)\n", r.Config)
			times := append([]time.Duration(nil), r.Stats.Times...)
			slices.Sort(times)
			for _, pt := range bench.CDF(times) {
				fmt.Printf("%.2f %.4f\n", pt[0], pt[1])
			}
		}
		return
	}
	fmt.Printf("%-14s %-10s %-10s %-10s %-10s\n", "config", "mean", "p50", "p90", "pages")
	for _, r := range results {
		fmt.Printf("%-14s %-10s %-10s %-10s %d\n", r.Config,
			fmtDur(r.Stats.Mean()), fmtDur(r.Stats.Percentile(50)),
			fmtDur(r.Stats.Percentile(90)), len(r.Stats.Times))
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Hour:
		return fmt.Sprintf("%.1fh", d.Hours())
	case d >= time.Minute:
		return fmt.Sprintf("%.1fm", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	default:
		return fmt.Sprintf("%.0fms", float64(d)/1e6)
	}
}
