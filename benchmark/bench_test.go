package main

import (
	"io"
	"strings"
	"testing"
	"time"
)

// testOptions runs a workload small and short: one setup, a brief
// warm-up, a one-second window, 20 traced rounds.
func testOptions(t *testing.T) options {
	return options{seed: 1, seconds: 1, outDir: t.TempDir(), segments: 1, warmup: 300 * time.Millisecond,
		calib: 20 * time.Millisecond, log: io.Discard}
}

// TestWorkloadsEmitDeclaredMetrics runs all four workload shapes shrunk
// to 3×4 and checks the emitted metrics against BENCHMARK.json, the
// output oracle, and the span log's structure.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the table has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %q, the table %q", i, bf.Workloads[i].Name, w.Name)
		}
		t.Run(w.Name, func(t *testing.T) {
			ro, err := runWorkload(w.shrunk(), testOptions(t), true)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range ro.problems() {
				t.Errorf("oracle: %s", p)
			}
			if ro.timed.attempted == 0 {
				t.Error("no record was attempted")
			}

			// Every declared metric exactly once with its declared unit,
			// nothing undeclared. (metricSet rejects a second set of one
			// name, so presence and equal counts are the whole check.)
			if len(ro.endToEnd.values) != len(bf.EndToEnd) {
				t.Errorf("%d end-to-end metrics emitted, %d declared", len(ro.endToEnd.values), len(bf.EndToEnd))
			}
			for _, d := range bf.EndToEnd {
				if got, ok := ro.endToEnd.values[d.Name]; !ok || got.Unit != d.Unit {
					t.Errorf("end-to-end metric %s: emitted %v (present %v), declared unit %q", d.Name, got, ok, d.Unit)
				}
			}
			if len(ro.perLayer.values) != len(bf.PerLayer) {
				t.Errorf("%d per-layer metrics emitted, %d declared", len(ro.perLayer.values), len(bf.PerLayer))
			}
			for _, d := range bf.PerLayer {
				if got, ok := ro.perLayer.values[d.Name]; !ok || got.Unit != d.Unit {
					t.Errorf("per-layer metric %s: emitted %v (present %v), declared unit %q", d.Name, got, ok, d.Unit)
				}
			}

			// The workload-isolation predictions that hold at any size.
			layer := func(name string) float64 { return ro.perLayer.values[name].Value }
			if (layer("store.puts_per_round") > 0) != w.Store {
				t.Errorf("store.puts_per_round = %v with store=%v", layer("store.puts_per_round"), w.Store)
			}
			if (layer("beacon.share_ms_per_round") > 0) != (w.BeaconEpoch > 0) {
				t.Errorf("beacon.share_ms_per_round = %v with beacon epoch %d", layer("beacon.share_ms_per_round"), w.BeaconEpoch)
			}
			if (layer("wire.bytes_per_round") == 0) != w.Sim || (layer("transport.frames_per_round") == 0) != w.Sim {
				t.Errorf("wire.bytes_per_round = %v, transport.frames_per_round = %v with sim=%v",
					layer("wire.bytes_per_round"), layer("transport.frames_per_round"), w.Sim)
			}
			if (layer("core.round_virtual_ms") > 0) != w.Sim {
				t.Errorf("core.round_virtual_ms = %v with sim=%v", layer("core.round_virtual_ms"), w.Sim)
			}
			if layer("core.rounds_failed") != 0 {
				t.Errorf("core.rounds_failed = %v", layer("core.rounds_failed"))
			}
			checkSpans(t, ro.traced.spans)
		})
	}
}

// checkSpans asserts the span log's structure: every parent and cause
// exists, children lie inside their parent's interval, and the spans of
// one envelope — and everything nested in them — share the round
// identifier.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	bad := 0
	fail := func(format string, args ...any) {
		if bad++; bad <= 10 {
			t.Errorf(format, args...)
		}
	}
	for i, s := range spans {
		if s.ID != i+1 {
			fail("span %d has id %d", i+1, s.ID)
		}
		if s.Round == "" || s.Name == "" || s.Member == "" {
			fail("span %d (%s) lacks a name, member or round identifier", s.ID, s.Name)
		}
		if s.End < s.Start {
			fail("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent != 0 {
			if s.Parent < 1 || s.Parent > len(spans) {
				fail("span %d (%s): parent %d does not exist", s.ID, s.Name, s.Parent)
				continue
			}
			p := spans[s.Parent-1]
			if s.Start < p.Start || s.End > p.End {
				fail("span %d (%s) [%d,%d] lies outside its parent %d (%s) [%d,%d]", s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
			}
			if s.Round != p.Round {
				fail("span %d (%s) has round %q, its parent %d round %q", s.ID, s.Name, s.Round, p.ID, p.Round)
			}
		}
		if s.Cause != 0 {
			if s.Cause < 1 || s.Cause >= s.ID {
				fail("span %d (%s): cause %d does not precede it", s.ID, s.Name, s.Cause)
				continue
			}
			c := spans[s.Cause-1]
			if !strings.HasPrefix(c.Name, "core.") {
				fail("span %d (%s): cause %d is a %s span, not a core span", s.ID, s.Name, c.ID, c.Name)
			}
			if c.End > s.Start {
				fail("span %d (%s) starts before its cause %d ends", s.ID, s.Name, c.ID)
			}
		}
		// One envelope's chain ends in its core.handle span: the fabric
		// span just before it carries the same cause, member and round.
		if strings.HasPrefix(s.Name, "core.handle.") {
			prev := spans[i-1]
			if prev.Name != "wire.decode" && prev.Name != "sim.link" {
				fail("span %d (%s) is not preceded by a fabric span but by %s", s.ID, s.Name, prev.Name)
			} else if prev.Cause != s.Cause || prev.Member != s.Member || prev.Round != s.Round {
				fail("span %d (%s): fabric span %d has cause/member/round %d/%s/%s, the handle %d/%s/%s",
					s.ID, s.Name, prev.ID, prev.Cause, prev.Member, prev.Round, s.Cause, s.Member, s.Round)
			}
		}
	}
	if bad > 10 {
		t.Errorf("... and %d more span errors", bad-10)
	}
}

// TestSeedDiscipline: the same seed repeats the traced count rows
// exactly; another seed changes the record bytes and the sender
// sequence but not the protocol's message count.
func TestSeedDiscipline(t *testing.T) {
	w := workloads[0].shrunk()
	run := func(seed uint64) *tracedResult {
		xr, err := runTraced(w, tracedConfig{Seed: seed, Rounds: 40, OutDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		return xr
	}
	a, b, c := run(7), run(7), run(8)
	for _, name := range countRows {
		if a.layer[name] != b.layer[name] {
			t.Errorf("%s did not repeat for one seed: %v then %v", name, a.layer[name], b.layer[name])
		}
	}
	if a.firstCRC != b.firstCRC || !equalInts(a.senders, b.senders) {
		t.Error("one seed gave two different record streams")
	}
	if a.firstCRC == c.firstCRC {
		t.Error("a different seed gave the same record bytes")
	}
	if equalInts(a.senders, c.senders) {
		t.Error("a different seed gave the same sender sequence")
	}
	if a.layer["core.msgs_per_round"] != c.layer["core.msgs_per_round"] {
		t.Errorf("core.msgs_per_round depends on the seed: %v vs %v", a.layer["core.msgs_per_round"], c.layer["core.msgs_per_round"])
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestOracleCatchesFaults feeds the observer a clean stream, then a
// duplicate, a corrupt payload and a reordering, and expects each to
// be reported with its record id.
func TestOracleCatchesFaults(t *testing.T) {
	build := func() (*oracle, *observer, [][]byte) {
		o := &oracle{}
		var frames [][]byte
		for id := uint64(0); id < 3; id++ {
			r := &record{id: id, sender: 0, seq: int(id), length: 40}
			var f []byte
			f, r.crc = buildRecord(1, id, r.length)
			o.add(r)
			frames = append(frames, f)
		}
		return o, newObserver(obsClient, o), frames
	}
	now := time.Now()

	o, ob, f := build()
	// A record split across two round outputs, then two coalesced.
	ob.feed(0, f[0][:10], now)
	ob.feed(0, f[0][10:], now)
	ob.feed(0, append(append([]byte(nil), f[1]...), f[2]...), now)
	if o.violation != "" {
		t.Errorf("clean stream reported: %s", o.violation)
	}
	if _, failed, _ := o.verdict(); failed != 3 {
		t.Errorf("records seen by one observer only must count as failed, got %d", failed)
	}

	o, ob, f = build()
	ob.feed(0, f[0], now)
	ob.feed(0, f[0], now)
	if !strings.Contains(o.violation, "record 0") {
		t.Errorf("duplicate not reported by id: %q", o.violation)
	}

	o, ob, f = build()
	f[1][recordHeaderLen+3] ^= 1
	ob.feed(0, f[0], now)
	ob.feed(0, f[1], now)
	if !strings.Contains(o.violation, "record 1") || !strings.Contains(o.violation, "corrupt") {
		t.Errorf("corrupt payload not reported by id: %q", o.violation)
	}

	o, ob, f = build()
	ob.feed(0, f[0], now)
	ob.feed(0, f[2], now)
	if !strings.Contains(o.violation, "record 2") || !strings.Contains(o.violation, "out of order") {
		t.Errorf("reordering not reported by id: %q", o.violation)
	}
}
