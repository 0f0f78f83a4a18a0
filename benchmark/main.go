// Command benchmark is the repository's one performance claim
// surface: four named workloads on the real SDK stack, five bounded
// end-to-end metrics plus a failure count, and a traced per-layer round
// budget. See README.md in this directory.
//
//	go run ./benchmark -seed 1                      # a full set, human-readable
//	go run ./benchmark -seed 1 -sets 2              # self-check: two sets must agree
//	bash benchmark/run.sh --workload post-64 --seed 1 --seconds 20 --trace 0
//
// The last form is the driver's: one workload, one JSON result line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// result is the driver's result line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	sets     int
	outDir   string
	segments int
	warmup   time.Duration
	calib    time.Duration // length of each host-speed calibration
	log      io.Writer     // progress and the human-readable report
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print one JSON result line (driver mode); empty runs the full set")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: record bytes, sender choice, arrival schedule")
	flag.IntVar(&o.seconds, "seconds", 30, "measurement window of the timed run, in seconds")
	flag.IntVar(&o.trace, "trace", 0, "driver mode: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	flag.IntVar(&o.sets, "sets", 1, "full-set mode: run the whole benchmark this many times and compare the sets")
	flag.StringVar(&o.outDir, "out", "benchmark/out", "directory for traces and store files")
	flag.Parse()
	o.segments, o.warmup, o.calib, o.log = segments, warmup, time.Second, os.Stderr
	if flag.NArg() > 0 || o.seconds < 1 || o.sets < 1 || o.trace < 0 || o.trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	// The stated machine: at most four cores, recorded truthfully.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	var err error
	if o.workload != "" {
		err = driverMode(o)
	} else {
		o.log = os.Stdout
		err = fullSets(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOutcome is one workload's complete measurement.
type runOutcome struct {
	workload Workload
	endToEnd *metricSet
	perLayer *metricSet // nil when the traced run was not requested
	timed    *timedResult
	traced   *tracedResult // nil when the traced run was not requested
}

// problems lists what the output oracle found wrong: lost, duplicated,
// reordered or corrupt records, Send errors, failed rounds.
func (ro *runOutcome) problems() []string {
	var ps []string
	if ro.timed.violation != "" {
		ps = append(ps, "output oracle: "+ro.timed.violation)
	}
	if ro.timed.failed > 0 {
		ps = append(ps, fmt.Sprintf("%d of %d records failed", ro.timed.failed, ro.timed.attempted))
	}
	return ps
}

// runWorkload runs the timed run and, when traced is set, the traced
// run and probes, and assembles the declared metric sets.
func runWorkload(w Workload, o options, traced bool) (*runOutcome, error) {
	ro := &runOutcome{workload: w}
	var calibBefore float64
	if traced {
		calibBefore = calibMops(o.calib)
	}
	fmt.Fprintf(o.log, "# %s: timed run (%d s window over %d groups)\n", w.Name, o.seconds, o.segments)
	tr, err := runTimed(w, timedConfig{
		Seed: o.seed, Seconds: time.Duration(o.seconds) * time.Second,
		Warmup: o.warmup, Segments: o.segments, OutDir: o.outDir,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: timed run: %w", w.Name, err)
	}
	ro.timed = tr
	ro.endToEnd = newMetricSet(endToEndDecls)
	for name, v := range tr.endToEnd {
		ro.endToEnd.set(name, v)
	}
	if err := ro.endToEnd.finish(); err != nil {
		return nil, err
	}
	if !traced {
		return ro, nil
	}

	fmt.Fprintf(o.log, "# %s: traced run (%d rounds)\n", w.Name, w.tracedRounds(o.seconds))
	xr, err := runTraced(w, tracedConfig{Seed: o.seed, Rounds: w.tracedRounds(o.seconds), OutDir: o.outDir})
	if err != nil {
		return nil, fmt.Errorf("%s: traced run: %w", w.Name, err)
	}
	ro.traced = xr
	ro.perLayer = newMetricSet(perLayerDecls)
	for name, v := range tr.layer {
		ro.perLayer.set(name, v)
	}
	for name, v := range xr.layer {
		ro.perLayer.set(name, v)
	}
	ro.perLayer.set("budget.coverage", xr.layer["budget.sum_ms_per_round"]/nonZero(tr.layer["proc.cpu_ms_per_round"]))
	ro.perLayer.set("env.calib_mops_before", calibBefore)
	ro.perLayer.set("env.calib_mops_after", calibMops(o.calib))
	ro.perLayer.set("env.nproc", float64(runtime.NumCPU()))
	ro.perLayer.set("env.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	if err := ro.perLayer.finish(); err != nil {
		return nil, err
	}
	return ro, nil
}

// nonZero keeps a ratio's denominator away from zero.
func nonZero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

// driverMode runs one workload and prints the contract's result line
// as the last line of standard output.
func driverMode(o options) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	ro, err := runWorkload(w, o, o.trace == 1)
	if err != nil {
		return err
	}
	set := ro.endToEnd
	if o.trace == 1 {
		set = ro.perLayer
	}
	problems := ro.problems()
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", w.Name, p)
	}
	if ro.timed.invalid != "" {
		// The outputs were correct, so the line below still says so; a
		// full set (go run ./benchmark) rejects the run instead.
		fmt.Fprintf(os.Stderr, "benchmark: %s: invalid run: %s\n", w.Name, ro.timed.invalid)
	}
	line, err := json.Marshal(result{
		Correct:   len(problems) == 0,
		Attempted: ro.timed.attempted,
		Failed:    ro.timed.failed,
		Metrics:   set.values,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// fullSets runs every workload, timed and traced, o.sets times, prints
// each set, and — with more than one set — compares them.
func fullSets(o options) error {
	bf, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	fmt.Fprintf(o.log, "machine: nproc=%d GOMAXPROCS=%d store filesystem=%s loopback TCP except wan-16 (SimNet, injected 10 ms / 50 ms)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), fsName(o.outDir))
	var sets [][]*runOutcome
	var bad []string
	for s := 0; s < o.sets; s++ {
		var set []*runOutcome
		for _, w := range workloads {
			ro, err := runWorkload(w, o, true)
			if err != nil {
				return err
			}
			printOutcome(o.log, s, ro)
			for _, p := range ro.problems() {
				bad = append(bad, fmt.Sprintf("set %d %s: %s", s, w.Name, p))
			}
			if ro.timed.invalid != "" {
				bad = append(bad, fmt.Sprintf("set %d %s: invalid run: %s", s, w.Name, ro.timed.invalid))
			}
			set = append(set, ro)
		}
		sets = append(sets, set)
	}
	if o.sets > 1 {
		bad = append(bad, compareSets(o.log, bf, sets)...)
	}
	if len(bad) > 0 {
		return fmt.Errorf("benchmark failed:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

// printOutcome prints every metric of one workload by name with its
// unit.
func printOutcome(out io.Writer, set int, ro *runOutcome) {
	fmt.Fprintf(out, "\n== set %d  workload %s  (records attempted %d, failed %d; latency samples %.0f; SDK soft errors %d)\n",
		set, ro.workload.Name, ro.timed.attempted, ro.timed.failed, ro.timed.layer["sdk.latency_samples"], ro.timed.softErrors)
	for _, ms := range []*metricSet{ro.endToEnd, ro.perLayer} {
		for _, d := range ms.decls {
			fmt.Fprintf(out, "%-36s %18.6f %s\n", d.Name, ms.values[d.Name].Value, d.Unit)
		}
	}
}

// compareSets prints, per (metric, workload), the relative difference
// between the first and every later set beside its bound, and returns
// the end-to-end pairs that differ by more than it, plus any traced
// count row that did not repeat exactly.
func compareSets(out io.Writer, bf *benchmarkFile, sets [][]*runOutcome) []string {
	var bad []string
	fmt.Fprintf(out, "\n== set comparison (relative difference of later sets against set 0)\n")
	for wi, first := range sets[0] {
		w := first.workload
		for s := 1; s < len(sets); s++ {
			other := sets[s][wi]
			fmt.Fprintf(out, "%s: env.calib_mops set 0 %.2f/%.2f, set %d %.2f/%.2f\n", w.Name,
				first.perLayer.values["env.calib_mops_before"].Value, first.perLayer.values["env.calib_mops_after"].Value, s,
				other.perLayer.values["env.calib_mops_before"].Value, other.perLayer.values["env.calib_mops_after"].Value)
			for _, e := range bf.EndToEnd {
				bound := e.Bound
				if b, ok := w.Bounds[e.Name]; ok {
					bound = b
				}
				a, b := first.endToEnd.values[e.Name].Value, other.endToEnd.values[e.Name].Value
				worse := (b - a) / nonZero(a)
				if e.Better == "higher" {
					worse = -worse
				}
				verdict := "ok"
				if worse > bound {
					verdict = "EXCEEDS BOUND"
					bad = append(bad, fmt.Sprintf("%s %s: set %d is %.1f%% worse than set 0 (bound %.0f%%)", w.Name, e.Name, s, 100*worse, 100*bound))
				}
				fmt.Fprintf(out, "  %-22s %-24s %14.4f -> %14.4f  worse by %+6.1f%%  bound %4.0f%%  %s\n", w.Name, e.Name, a, b, 100*worse, 100*bound, verdict)
			}
			for _, name := range countRows {
				a, b := first.perLayer.values[name].Value, other.perLayer.values[name].Value
				if a != b {
					bad = append(bad, fmt.Sprintf("%s %s: traced count did not repeat (%v, then %v)", w.Name, name, a, b))
				}
			}
			for _, d := range perLayerDecls {
				a, b := first.perLayer.values[d.Name].Value, other.perLayer.values[d.Name].Value
				fmt.Fprintf(out, "  %-22s %-36s %14.4f -> %14.4f  %+6.1f%%\n", w.Name, d.Name, a, b, 100*(b-a)/nonZero(a))
			}
		}
	}
	return bad
}
