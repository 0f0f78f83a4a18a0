package cluster

import (
	"context"
	"fmt"
	"os"
	"time"
)

// Options tunes a scenario run's mechanism without touching the
// scenario itself.
type Options struct {
	// Mode overrides the scenario's deployment mode ("" keeps it).
	Mode Mode
	// Dir is where group material and worker files are provisioned
	// ("" = a fresh temp dir, removed afterwards).
	Dir string
	// WorkerExe is the binary re-executed as server workers in tcp
	// mode ("" = os.Executable(); the binary must honor WorkerEnv).
	WorkerExe string
	// Quick shrinks the scenario for smoke runs (Scenario.Quick).
	Quick bool
	// ScrapeInterval is the metrics poll period (0 = 250ms).
	ScrapeInterval time.Duration
	// Logf, when set, narrates run phases (the CLI wires it to -v).
	Logf func(format string, args ...any)
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Result is one scenario run's distilled outcome.
type Result struct {
	Scenario Scenario
	// Rounds certified during the measured window; RoundsPerSec over
	// the window's wall time.
	Rounds       uint64
	RoundsPerSec float64
	// Healthy/Fault percentiles of the servers' per-round totals,
	// classified by whether the round started inside a fault window.
	HealthyP50, HealthyP99 time.Duration
	FaultP50, FaultP99     time.Duration
	// DegradationRatio is FaultP50/HealthyP50 (0 when either side has
	// no samples).
	DegradationRatio float64
	// BytesMoved sums the servers' wire-byte deltas over the window.
	BytesMoved uint64
	// ChurnJoins/ChurnExpels are certified roster transitions during
	// the window; DialFailures counts transport dial failures (tcp).
	ChurnJoins, ChurnExpels uint64
	DialFailures            uint64
	// StateRestores counts live-session resumes from durable state
	// stores during the window (kill-server faults with
	// Topology.DurableStores).
	StateRestores uint64
	// BlameRounds counts accusation shuffles during the window (max
	// across servers); Misbehavior counts attributed protocol offenses
	// by kind over the same span.
	BlameRounds uint64
	Misbehavior map[string]uint64
	// Byzantine is the scripted-adversary outcome: time-to-expel and
	// goodput under attack (nil without byzantine faults).
	Byzantine *ByzantineOutcome
	// WorkloadRows carries the traffic driver's own measurements.
	WorkloadRows []Row
}

// Run executes one scenario end to end: provision, deploy, wait for
// the schedule, drive workload + faults while scraping every server,
// drain, and reduce to a Result.
func Run(ctx context.Context, sc Scenario, opts Options) (*Result, error) {
	if opts.Quick {
		sc = sc.Quick()
	}
	if opts.Mode != "" {
		sc.Mode = opts.Mode
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}

	dir := opts.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "dissent-cluster-"+sc.Name+"-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	opts.logf("provisioning %d servers, %d clients in %s", sc.Topology.Servers, sc.Topology.Clients, dir)
	m, err := provision(dir, sc)
	if err != nil {
		return nil, err
	}
	if m.byz, err = buildByzantine(sc); err != nil {
		return nil, err
	}

	opts.logf("deploying (%s mode)", sc.Mode)
	var dep *deployment
	if sc.Mode == ModeTCP {
		dep, err = deployTCP(ctx, m, opts.WorkerExe)
	} else {
		dep, err = deploySim(ctx, m)
	}
	if err != nil {
		return nil, err
	}
	defer dep.stop()

	opts.logf("waiting for the slot schedule (warmup %v)", sc.warmup())
	if err := dep.waitReady(ctx, sc.warmup()); err != nil {
		return nil, err
	}

	urls := make([]string, len(dep.servers))
	for i, h := range dep.servers {
		urls[i] = h.debugURL
	}
	scr := newScraper(urls, opts.ScrapeInterval)
	scr.scrapeOnce() // baseline before traffic
	base := scr.counters()
	scr.start()

	start := time.Now()
	var faultWindows []window
	for _, f := range sc.Faults {
		w := window{from: start.Add(f.At)}
		if f.Duration > 0 {
			w.to = start.Add(f.At + f.Duration)
		}
		faultWindows = append(faultWindows, w)
	}
	stopFaults := dep.armFaults(sc)
	defer stopFaults()
	var byz *byzRun
	if m.byz != nil {
		byz, err = startByzantine(dep, m.byz, scr)
		if err != nil {
			return nil, err
		}
		defer byz.halt()
	}

	opts.logf("running %s workload for up to %v (%d fault(s) armed)", sc.Workload.Kind, sc.run(), len(sc.Faults))
	wctx, cancel := context.WithTimeout(ctx, sc.run())
	ws, werr := runWorkload(wctx, dep, sc)
	cancel()

	opts.logf("draining %v", sc.drain())
	select {
	case <-time.After(sc.drain()):
	case <-ctx.Done():
	}
	scr.halt()
	// The final scrape (inside halt) closes the measured window: the
	// counter deltas include rounds certified during the drain, so the
	// rate must be taken over the same span.
	elapsed := time.Since(start)
	if werr != nil {
		return nil, werr
	}

	final := scr.counters()
	res := &Result{
		Scenario:      sc,
		Rounds:        final.rounds - base.rounds,
		BytesMoved:    final.bytes - base.bytes,
		ChurnJoins:    final.joins - base.joins,
		ChurnExpels:   final.expels - base.expels,
		DialFailures:  final.dialFailures - base.dialFailures,
		StateRestores: final.restores - base.restores,
		BlameRounds:   final.blame - base.blame,
		Misbehavior:   misbehaviorDelta(base.misbehavior, final.misbehavior),
		WorkloadRows:  ws.rows,
	}
	if byz != nil {
		res.Byzantine = byz.outcome()
		opts.logf("byzantine outcome: expelled=%v time-to-expel=%v rounds-to-expel=%d goodput-under-attack=%.1f rounds/s",
			res.Byzantine.Expelled, res.Byzantine.TimeToExpel.Round(time.Millisecond),
			res.Byzantine.RoundsToExpel, res.Byzantine.AttackRoundsPerSec)
	}
	if secs := elapsed.Seconds(); secs > 0 {
		res.RoundsPerSec = float64(res.Rounds) / secs
	}
	healthy, faulted := scr.latencies(start, faultWindows)
	res.HealthyP50 = percentile(healthy, 50)
	res.HealthyP99 = percentile(healthy, 99)
	res.FaultP50 = percentile(faulted, 50)
	res.FaultP99 = percentile(faulted, 99)
	if res.HealthyP50 > 0 && res.FaultP50 > 0 {
		res.DegradationRatio = float64(res.FaultP50) / float64(res.HealthyP50)
	}
	opts.logf("done: %d rounds (%.1f/s), %d bytes moved", res.Rounds, res.RoundsPerSec, res.BytesMoved)
	return res, nil
}

// sanity check that rounds actually proceeded, shared by the CLI and
// tests: cover traffic keeps rounds turning over even idle, so a run
// with zero rounds means the deployment never worked.
func (r *Result) check() error {
	if r.Rounds == 0 {
		return fmt.Errorf("cluster: scenario %s certified no rounds", r.Scenario.Name)
	}
	return nil
}
