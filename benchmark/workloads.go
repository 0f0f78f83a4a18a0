package main

import (
	"fmt"
	"time"

	"dissent"
)

// numServers is fixed across workloads: the paper's evaluation and
// every deployment example in this repo run three anytrust servers.
const numServers = 3

// Workload is one declarative benchmark configuration: the group
// shape, the fabric, the per-workload knobs and the offered load. The
// harness (timed.go, stepper.go) is mechanism only — nothing there
// branches on a workload name.
type Workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same sentence).
	Why string

	Clients int
	// Senders is how many clients (indices 0..Senders-1) originate
	// records. The highest-index client is the observer; it sends only
	// when Senders == Clients (the closed-loop bulk shape).
	Senders int
	// RecordBytes is the payload size of one record (the 16-byte record
	// header rides on top).
	RecordBytes int

	// Sim selects the in-process SimNet fabric with the paper's
	// latency topology; otherwise every member listens on loopback TCP.
	Sim          bool
	ServerServer time.Duration // one-way server–server delay (Sim only)
	ClientServer time.Duration // one-way client–server delay (Sim only)

	Store         bool // OpenStateStore per server on a real filesystem
	BeaconEpoch   int  // Policy.BeaconEpochRounds (0 = beacon off)
	PipelineDepth int

	// ClosedLoop keeps exactly one record outstanding per sender (the
	// next Send happens when the observer client holds the previous
	// one). Otherwise records arrive open-loop, Rate in every second at
	// seeded offsets (see arrivals), timed from their due time.
	ClosedLoop bool
	Rate       int

	// TraceEveryRounds is the traced run's arrival schedule for
	// open-loop workloads on a fabric whose virtual clock does not
	// advance (loopback has zero link delay): one record is released
	// every TraceEveryRounds certified rounds, the timed run's nominal
	// records-per-round ratio. Sim workloads use Rate on the virtual
	// clock instead.
	TraceEveryRounds int
	// TraceRoundsPer30s is the traced run's fixed round count at the
	// issue's 30 s window; it scales with -seconds.
	TraceRoundsPer30s int

	// Bounds overrides BENCHMARK.json's per-metric regression bound in
	// the -sets self-check (the wait-bound workload is steadier).
	Bounds map[string]float64
}

// workloads is the fixed table later issues cite by name.
var workloads = []Workload{
	{
		Name:    "post-64",
		Why:     "microblog shape at the largest N that fits 2 cores: per-message work (envelope verify/sign, wire decode, ~150 small frames per round) dominates",
		Clients: 64, Senders: 16, RecordBytes: 128,
		PipelineDepth: 1, Rate: 50,
		TraceEveryRounds: 1, TraceRoundsPer30s: 300,
	},
	{
		Name:    "bulk-4",
		Why:     "data-sharing shape: the same layers used per byte (~0.5 MiB vectors: hashing, slot masking, memmove, pad streaming), closed loop at capacity",
		Clients: 4, Senders: 4, RecordBytes: 128 << 10,
		PipelineDepth: 1, ClosedLoop: true,
		TraceRoundsPer30s: 200,
	},
	{
		Name:    "durable-16",
		Why:     "full deployment stack: fsynced state store per server and beacon epochs every 16 rounds; the only workload where store and beacon run",
		Clients: 16, Senders: 4, RecordBytes: 128,
		Store: true, BeaconEpoch: 16,
		PipelineDepth: 1, Rate: 20,
		TraceEveryRounds: 5, TraceRoundsPer30s: 300,
	},
	{
		Name:    "wan-16",
		Why:     "wait-bound: SimNet with the paper's 10 ms / 50 ms delays at pipeline depth 2; CPU work on crypto/wire/transport must not move it",
		Clients: 16, Senders: 4, RecordBytes: 128,
		Sim: true, ServerServer: 10 * time.Millisecond, ClientServer: 50 * time.Millisecond,
		PipelineDepth: 2, Rate: 10,
		TraceRoundsPer30s: 300,
		Bounds:            map[string]float64{"rounds_per_s": 0.05, "msg_latency_ms_p50": 0.05},
	},
}

func findWorkload(name string) (Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// shrunk returns the workload at the 3×4 shape bench_test.go runs:
// same fabric, knobs and load shape, fewer members.
func (w Workload) shrunk() Workload {
	w.Clients = 4
	if w.Senders > 2 && !w.ClosedLoop {
		w.Senders = 2
	}
	if w.ClosedLoop {
		w.Senders = w.Clients
		w.RecordBytes = 8 << 10
	}
	return w
}

// policy is the common configuration: the paper's defaults with a
// short window floor, a hard timeout that cannot fire inside a run,
// small initial slots, and enough retained rounds that blame history
// never dominates memory.
func (w Workload) policy() dissent.Policy {
	p := dissent.DefaultPolicy()
	p.WindowMin = 15 * time.Millisecond
	p.HardTimeout = 30 * time.Second
	p.DefaultOpenLen = 256
	p.RetainRounds = 64
	p.BeaconEpochRounds = w.BeaconEpoch
	return p
}

// tracedRounds is the traced run's fixed certified-round count for a
// run of the given length.
func (w Workload) tracedRounds(seconds int) int {
	n := w.TraceRoundsPer30s * seconds / 30
	if n < 20 {
		n = 20
	}
	return n
}

// observer is the index of the observing client.
func (w Workload) observer() int { return w.Clients - 1 }
