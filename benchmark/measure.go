package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"dissent"
)

// segment is what one stood-up group measured over its share of the
// window. A run measures several groups in turn rather than one for the
// whole window: two instances of the same group in one process differ by
// several per cent in CPU per round (heap layout, which connections the
// scheduler pairs up), and the median over instances is steadier than
// any one of them.
type segment struct {
	window    float64 // seconds actually measured
	rounds    int
	goodBytes int
	latencies []float64 // ms, records due/sent inside the window
	a, b      fabricSnap
	final     fabricSnap
	spans     []dissent.RoundTrace // server 0's round spans ending inside the window
	w0        time.Time

	heapPeak, goroutines uint64
	maxLate              time.Duration
	softErrors           int64
	attempted, failed    int
	violation            string
}

// measureSegment offers the workload's load to a stood-up group for
// warm-up + window, drains, and closes the oracle's books.
func measureSegment(lg *liveGroup, seed uint64, warm, window time.Duration) *segment {
	w := lg.w
	seg := &segment{}

	// Observers reassemble at server 0 and the highest-index client;
	// every other session's output channel is drained and discarded, as
	// any application reading its messages would.
	orc := &oracle{}
	doneCh := make(chan int, w.Senders) // one outstanding record per sender
	if w.ClosedLoop {
		orc.onDone = func(r *record) { doneCh <- r.sender }
	}
	watch := func(s *dissent.Session, ob *observer) {
		lg.drains.Add(1)
		go func() {
			defer lg.drains.Done()
			for out := range s.Messages() {
				if ob != nil {
					ob.feed(out.Slot, out.Data, time.Now())
				}
			}
		}()
	}
	for i, m := range lg.servers {
		var ob *observer
		if i == 0 {
			ob = newObserver(obsServer, orc)
		}
		watch(m.sess, ob)
	}
	for i, m := range lg.clients {
		var ob *observer
		if i == w.observer() {
			ob = newObserver(obsClient, orc)
		}
		watch(m.sess, ob)
	}

	// The poller keeps server 0's round spans (its ring holds 128) and
	// samples the heap and goroutine gauges.
	spans := make(map[uint64]dissent.RoundTrace)
	pollStop := make(chan struct{})
	var pollDone sync.WaitGroup
	poll := func() {
		for _, t := range lg.servers[0].sess.RecentTraces(0) {
			spans[t.Round] = t
		}
		h, g := readGauges()
		seg.heapPeak = max(seg.heapPeak, h)
		seg.goroutines = max(seg.goroutines, g)
	}
	pollDone.Add(1)
	go func() {
		defer pollDone.Done()
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				poll()
			case <-pollStop:
				poll()
				return
			}
		}
	}()

	start := time.Now()
	w0 := start.Add(warm)
	w1 := w0.Add(window)
	gen := &generator{w: w, seed: seed, lg: lg, oracle: orc, start: start, stop: w1, perSeq: make([]int, w.Clients)}
	var genDone sync.WaitGroup
	genDone.Add(1)
	go func() {
		defer genDone.Done()
		// Its own OS thread: the kernel, not the Go scheduler of a
		// CPU-saturated process, decides when a due record goes out.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		if w.ClosedLoop {
			gen.runClosed(doneCh)
		} else {
			gen.runOpen()
		}
	}()

	time.Sleep(time.Until(w0))
	seg.a = lg.snap()
	time.Sleep(time.Until(w1))
	seg.b = lg.snap()
	genDone.Wait()

	drainEnd := time.Now().Add(drainLimit)
	for orc.outstanding() > 0 && time.Now().Before(drainEnd) {
		time.Sleep(5 * time.Millisecond)
	}
	close(pollStop)
	pollDone.Wait()
	seg.final = lg.snap()
	seg.maxLate = gen.maxLate
	seg.softErrors = lg.softErr.Load()

	seg.attempted, seg.failed, seg.violation = orc.verdict()
	if seg.final.failed > 0 && seg.violation == "" {
		seg.violation = fmt.Sprintf("core.rounds_failed = %d at server 0", seg.final.failed)
	}
	seg.w0 = w0
	seg.window = seg.b.proc.at.Sub(seg.a.proc.at).Seconds()
	seg.rounds = int(seg.b.rounds - seg.a.rounds)
	orc.mu.Lock()
	for _, r := range orc.records {
		if r.seen[obsClient] == 0 {
			continue
		}
		d := r.done[obsClient]
		if !d.Before(w0) && d.Before(w1) {
			seg.goodBytes += r.length
		}
		if !r.sent.Before(w0) && r.sent.Before(w1) {
			seg.latencies = append(seg.latencies, millis(d.Sub(r.sent)))
		}
	}
	orc.mu.Unlock()
	for _, t := range spans {
		if end := t.Start.Add(t.Total); !t.Failed && !end.Before(w0) && end.Before(w1) {
			seg.spans = append(seg.spans, t)
		}
	}
	return seg
}

// runTimed performs one timed run of w: cfg.Segments groups are stood
// up in turn, each measured for an equal share of cfg.Seconds.
func runTimed(w Workload, cfg timedConfig) (*timedResult, error) {
	gk, err := generateGroup(w)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	res := &timedResult{endToEnd: make(map[string]float64), layer: make(map[string]float64)}

	newGroup := func() (*liveGroup, float64, error) {
		dir, err := os.MkdirTemp(cfg.OutDir, "store-")
		if err != nil {
			return nil, 0, err
		}
		lg, took, err := standUp(w, gk, dir)
		return lg, took.Seconds(), err
	}
	var setups []float64
	var segs []*segment
	for i := 0; i < cfg.Segments; i++ {
		lg, took, err := newGroup()
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", i, err)
		}
		setups = append(setups, took)
		segs = append(segs, measureSegment(lg, cfg.Seed*16+uint64(i), cfg.Warmup, cfg.Seconds/time.Duration(cfg.Segments)))
		lg.tearDown()
	}
	// A group that stands up in tens of milliseconds is stood up more
	// often, so that its median is as steady as a slow group's.
	for i := cfg.Segments; sum(setups) < setupBudget.Seconds() && i < 3*cfg.Segments; i++ {
		lg, took, err := newGroup()
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", i, err)
		}
		setups = append(setups, took)
		lg.tearDown()
	}

	// The round rate is the median over segments. Goodput is pooled —
	// a short window's edges (a record completing just outside it) are
	// most of its variation on the open-loop workloads — and so are the
	// latency samples, so the p95 keeps its ten samples beyond it.
	var rps, lat []float64
	var goodBytes, goodWindow float64
	var maxLate time.Duration
	for _, s := range segs {
		rps = append(rps, float64(s.rounds)/s.window)
		goodBytes += float64(s.goodBytes)
		goodWindow += s.window
		lat = append(lat, s.latencies...)
		res.attempted += s.attempted
		res.failed += s.failed
		res.softErrors += s.softErrors
		if res.violation == "" {
			res.violation = s.violation
		}
		maxLate = max(maxLate, s.maxLate)
	}
	if maxLate > maxGeneratorLate {
		res.invalid = fmt.Sprintf("open-loop generator ran %.1f ms late (limit %.0f ms): the generator, not the program, was the bottleneck",
			millis(maxLate), millis(maxGeneratorLate))
	}
	res.endToEnd["setup_s"] = median(setups)
	res.endToEnd["rounds_per_s"] = median(rps)
	res.endToEnd["goodput_Bps"] = goodBytes / goodWindow
	res.endToEnd["msg_latency_ms_p50"] = percentile(lat, 0.50)
	res.endToEnd["msg_latency_ms_p95"] = percentile(lat, 0.95)

	// Per-layer rows read from outside: totals over all segments.
	var window float64
	var rounds int
	var cpu, gcPause, mutexWait time.Duration
	var allocs, allocBytes, msgsOut, bytesOut, hits, miss, dialFail, dropped, roundsFailed, heapPeak, goroutines uint64
	var storeBytes int64
	var gaps, win, pad, comb, cert, strag []float64
	for _, s := range segs {
		window += s.window
		rounds += s.rounds
		cpu += s.b.proc.cpu - s.a.proc.cpu
		gcPause += s.b.proc.gcPause - s.a.proc.gcPause
		mutexWait += s.b.proc.mutexWait - s.a.proc.mutexWait
		allocs += s.b.proc.allocs - s.a.proc.allocs
		allocBytes += s.b.proc.allocBytes - s.a.proc.allocBytes
		msgsOut += s.b.msgsOut - s.a.msgsOut
		bytesOut += s.b.bytesOut - s.a.bytesOut
		hits += s.b.hits - s.a.hits
		miss += s.b.miss - s.a.miss
		storeBytes += s.b.storeBytes - s.a.storeBytes
		dialFail += s.final.dialFail
		dropped += s.final.framesDropd
		roundsFailed += s.final.failed
		heapPeak = max(heapPeak, s.heapPeak)
		goroutines = max(goroutines, s.goroutines)

		var ends []float64
		for _, t := range s.spans {
			ends = append(ends, millis(t.Start.Add(t.Total).Sub(s.w0)))
			win = append(win, millis(t.Window))
			pad = append(pad, millis(t.Pad))
			comb = append(comb, millis(t.Combine))
			cert = append(cert, millis(t.Certify))
			strag = append(strag, float64(t.Stragglers))
		}
		percentile(ends, 1) // sorts
		for i := 1; i < len(ends); i++ {
			gaps = append(gaps, ends[i]-ends[i-1])
		}
	}
	L := res.layer
	L["sdk.msg_latency_ms_p99"] = percentile(lat, 0.99)
	L["sdk.latency_samples"] = float64(len(lat))
	L["sdk.delivery_failed_frac"] = float64(res.failed) / math.Max(1, float64(res.attempted))
	L["sdk.msgs_per_round"] = perRound(float64(msgsOut), rounds)
	L["sdk.wire_bytes_per_round"] = perRound(float64(bytesOut), rounds)
	L["transport.dial_failures"] = float64(dialFail)
	L["transport.frames_dropped"] = float64(dropped)
	L["store.file_bytes_per_round"] = perRound(float64(storeBytes), rounds)
	L["core.rounds_failed"] = float64(roundsFailed)
	L["core.prefetch_hit_frac"] = float64(hits) / math.Max(1, float64(hits+miss))
	L["core.round_interval_ms_p50"] = percentile(gaps, 0.50)
	L["core.round_interval_ms_p95"] = percentile(gaps, 0.95)
	L["core.window_ms_per_round"] = perRound(sum(win), len(win))
	L["core.pad_ms_per_round"] = perRound(sum(pad), len(pad))
	L["core.combine_ms_per_round"] = perRound(sum(comb), len(comb))
	L["core.certify_ms_p50"] = median(cert)
	L["core.stragglers_per_round"] = perRound(sum(strag), len(strag))
	L["proc.cpu_ms_per_round"] = perRound(millis(cpu), rounds)
	L["proc.cpu_util"] = cpu.Seconds() / window
	L["proc.allocs_per_round"] = perRound(float64(allocs), rounds)
	L["proc.alloc_bytes_per_round"] = perRound(float64(allocBytes), rounds)
	L["proc.gc_pause_ms_per_s"] = millis(gcPause) / window
	L["proc.heap_peak_mb"] = float64(heapPeak) / (1 << 20)
	L["proc.mutex_wait_ms_per_round"] = perRound(millis(mutexWait), rounds)
	L["proc.goroutines"] = float64(goroutines)
	L["gen.max_late_ms"] = millis(maxLate)
	return res, nil
}
