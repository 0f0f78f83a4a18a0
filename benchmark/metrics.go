package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// metricDecl is one declared metric: BENCHMARK.json carries the same
// names and units, and bench_test.go checks the two agree and that a
// run emits each exactly once.
type metricDecl struct {
	Name string
	Unit string
}

// endToEndDecls are what a user of the system sees. The issue's sixth
// metric, delivery_failed_frac, must stay exactly 0, which the
// benchmark contract cannot bound relatively; it is reported through
// the result line's attempted/failed/correct fields and as the
// per-layer row sdk.delivery_failed_frac.
var endToEndDecls = []metricDecl{
	{"setup_s", "s"},
	{"rounds_per_s", "1/s"},
	{"goodput_Bps", "B/s"},
	{"msg_latency_ms_p50", "ms"},
	{"msg_latency_ms_p95", "ms"},
}

// perLayerDecls lists the per-layer budget, grouped by the repo's
// modules. Rows marked T in the README come from the timed run through
// public APIs; the rest come from the traced run.
var perLayerDecls = []metricDecl{
	{"crypto.verify_us_per_op", "us"},
	{"crypto.sign_us_per_op", "us"},
	{"crypto.verify_allocs_per_op", "count"},
	{"crypto.verifies_per_round", "count"},
	{"crypto.signs_per_round", "count"},
	{"crypto.verify_ms_per_round", "ms"},
	{"crypto.sign_ms_per_round", "ms"},

	{"wire.encode_ms_per_round", "ms"},
	{"wire.decode_ms_per_round", "ms"},
	{"wire.bytes_per_round", "B"},
	{"wire.allocs_per_msg", "count"},

	{"transport.write_ms_per_round", "ms"},
	{"transport.read_ms_per_round", "ms"},
	{"transport.frames_per_round", "count"},
	{"transport.dial_failures", "count"},
	{"transport.frames_dropped", "count"},

	{"dcnet.vector_bytes", "B"},
	{"dcnet.server_pad_ms_per_round", "ms"},
	{"dcnet.client_ct_ms_per_round", "ms"},
	{"dcnet.slot_codec_ms_per_round", "ms"},
	{"dcnet.pad_allocs_per_seed", "count"},

	{"beacon.share_ms_per_round", "ms"},

	{"store.puts_per_round", "count"},
	{"store.put_bytes_per_round", "B"},
	{"store.put_ms_p50", "ms"},
	{"store.put_ms_p95", "ms"},
	{"store.put_ms_per_round", "ms"},
	{"store.file_bytes_per_round", "B"},

	{"core.msgs_per_round", "count"},
	{"core.server_handle_ms_per_round", "ms"},
	{"core.client_handle_ms_per_round", "ms"},
	{"core.client_submit_handle_us", "us"},
	{"core.output_handle_us", "us"},
	{"core.step_ms_per_round", "ms"},
	{"core.setup_cpu_ms", "ms"},
	{"core.round_virtual_ms", "ms"},
	{"core.round_interval_ms_p50", "ms"},
	{"core.round_interval_ms_p95", "ms"},
	{"core.window_ms_per_round", "ms"},
	{"core.pad_ms_per_round", "ms"},
	{"core.combine_ms_per_round", "ms"},
	{"core.certify_ms_p50", "ms"},
	{"core.prefetch_hit_frac", "fraction"},
	{"core.stragglers_per_round", "count"},
	{"core.rounds_failed", "count"},

	{"sdk.msgs_per_round", "count"},
	{"sdk.wire_bytes_per_round", "B"},
	{"sdk.msg_latency_ms_p99", "ms"},
	{"sdk.latency_samples", "count"},
	{"sdk.delivery_failed_frac", "fraction"},

	{"proc.cpu_ms_per_round", "ms"},
	{"proc.cpu_util", "cores"},
	{"proc.allocs_per_round", "count"},
	{"proc.alloc_bytes_per_round", "B"},
	{"proc.gc_pause_ms_per_s", "ms/s"},
	{"proc.heap_peak_mb", "MB"},
	{"proc.mutex_wait_ms_per_round", "ms"},
	{"proc.goroutines", "count"},

	{"budget.sum_ms_per_round", "ms"},
	{"budget.coverage", "fraction"},

	{"gen.max_late_ms", "ms"},
	{"env.calib_mops_before", "Mops/s"},
	{"env.calib_mops_after", "Mops/s"},
	{"env.nproc", "count"},
	{"env.gomaxprocs", "count"},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects one run's metrics against a declaration list. A
// name outside the list, or set twice, is a bug in the benchmark and
// is reported by finish.
type metricSet struct {
	decls  []metricDecl
	values map[string]metricValue
	errs   []string
}

func newMetricSet(decls []metricDecl) *metricSet {
	return &metricSet{decls: decls, values: make(map[string]metricValue)}
}

func (ms *metricSet) set(name string, v float64) {
	for _, d := range ms.decls {
		if d.Name != name {
			continue
		}
		if _, dup := ms.values[name]; dup {
			ms.errs = append(ms.errs, "metric "+name+" set twice")
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			ms.errs = append(ms.errs, "metric "+name+" is not a number")
			v = 0
		}
		ms.values[name] = metricValue{Value: v, Unit: d.Unit}
		return
	}
	ms.errs = append(ms.errs, "metric "+name+" is not declared")
}

// finish checks that every declared metric was set exactly once.
func (ms *metricSet) finish() error {
	for _, d := range ms.decls {
		if _, ok := ms.values[d.Name]; !ok {
			ms.errs = append(ms.errs, "metric "+d.Name+" was not emitted")
		}
	}
	if len(ms.errs) > 0 {
		return fmt.Errorf("metric bookkeeping: %v", ms.errs)
	}
	return nil
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// --- small statistics -------------------------------------------------

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 1) of
// xs, or 0 for an empty sample. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// perRound divides a total by a round count, 0 when there were none.
func perRound(total float64, rounds int) float64 {
	if rounds <= 0 {
		return 0
	}
	return total / float64(rounds)
}
