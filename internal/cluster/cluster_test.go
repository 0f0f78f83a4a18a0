package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestMain doubles as the tcp-mode worker entry point: the orchestrator
// re-executes the test binary with WorkerEnv set, so the same binary
// that drives a tcp scenario also serves as its server processes.
func TestMain(m *testing.M) {
	if cfg := os.Getenv(WorkerEnv); cfg != "" {
		if err := RunWorkerFile(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "cluster worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// --- scenario policy -------------------------------------------------

func TestBuiltinScenariosValidate(t *testing.T) {
	scenarios := Scenarios()
	if len(scenarios) < 4 {
		t.Fatalf("only %d built-in scenarios", len(scenarios))
	}
	for _, sc := range scenarios {
		if err := sc.Validate(); err != nil {
			t.Errorf("builtin %s: %v", sc.Name, err)
		}
		if err := sc.Quick().Validate(); err != nil {
			t.Errorf("builtin %s (quick): %v", sc.Name, err)
		}
		got, err := Lookup(sc.Name)
		if err != nil || got.Name != sc.Name {
			t.Errorf("Lookup(%s) = %v, %v", sc.Name, got.Name, err)
		}
	}
	if _, err := Lookup("no-such-scenario"); err == nil {
		t.Error("Lookup of unknown scenario succeeded")
	}
}

func TestQuickShrinks(t *testing.T) {
	sc, err := Lookup("churn-storm")
	if err != nil {
		t.Fatal(err)
	}
	q := sc.Quick()
	if q.Topology.Clients > 5 {
		t.Errorf("quick kept %d clients", q.Topology.Clients)
	}
	if q.Run > 15*time.Second {
		t.Errorf("quick kept run window %v", q.Run)
	}
	if q.Workload.Storms > 1 || q.Workload.Victims > 1 {
		t.Errorf("quick kept storms=%d victims=%d", q.Workload.Storms, q.Workload.Victims)
	}
	if q.Workload.Kind != sc.Workload.Kind {
		t.Errorf("quick changed the workload kind to %s", q.Workload.Kind)
	}
}

func TestValidateRejections(t *testing.T) {
	base := func() Scenario {
		return Scenario{
			Name:     "probe",
			Mode:     ModeSim,
			Topology: Topology{Servers: 3, Clients: 6},
			Workload: Workload{Kind: WorkloadIdle},
		}
	}
	cases := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"unnamed", func(sc *Scenario) { sc.Name = "" }},
		{"bad mode", func(sc *Scenario) { sc.Mode = "udp" }},
		{"no clients", func(sc *Scenario) { sc.Topology.Clients = 0 }},
		{"too many posters", func(sc *Scenario) {
			sc.Workload = Workload{Kind: WorkloadMicroblog, Posters: 7}
		}},
		{"browsers exceed clients", func(sc *Scenario) {
			sc.Workload = Workload{Kind: WorkloadSocksBrowse, Browsers: 6, Pages: 1}
		}},
		{"churned browse with multi-slot frames", func(sc *Scenario) {
			sc.Topology.EpochRounds = 4
			sc.Topology.OpenLen = 1024
			sc.Workload = Workload{Kind: WorkloadSocksBrowse, Browsers: 1, Pages: 1}
		}},
		{"churn without epochs", func(sc *Scenario) {
			sc.Workload = Workload{Kind: WorkloadChurnStorm, Victims: 1, Storms: 1}
		}},
		{"all clients are victims", func(sc *Scenario) {
			sc.Topology.EpochRounds = 4
			sc.Workload = Workload{Kind: WorkloadChurnStorm, Victims: 6, Storms: 1}
		}},
		{"background churn without epochs", func(sc *Scenario) {
			sc.Workload.ChurnVictims = 1
		}},
		{"background churn overlaps workload", func(sc *Scenario) {
			sc.Topology.EpochRounds = 4
			sc.Workload = Workload{Kind: WorkloadMicroblog, Posters: 4, ChurnVictims: 3}
		}},
		{"unknown workload", func(sc *Scenario) { sc.Workload.Kind = "torrent" }},
		{"partition in tcp mode", func(sc *Scenario) {
			sc.Mode = ModeTCP
			sc.Faults = []Fault{{Kind: FaultPartitionServer, Server: 0}}
		}},
		{"kill in sim mode", func(sc *Scenario) {
			sc.Faults = []Fault{{Kind: FaultKillServer, Server: 0}}
		}},
		{"fault server out of range", func(sc *Scenario) {
			sc.Faults = []Fault{{Kind: FaultPartitionServer, Server: 3}}
		}},
		{"unknown fault", func(sc *Scenario) {
			sc.Faults = []Fault{{Kind: "meteor", Server: 0}}
		}},
		{"byzantine in tcp mode", func(sc *Scenario) {
			sc.Mode = ModeTCP
			sc.Topology.EpochRounds = 4
			sc.Faults = []Fault{{Kind: FaultByzantineClient, Client: 1, Attack: "slot-jam"}}
		}},
		{"byzantine unknown attack", func(sc *Scenario) {
			sc.Topology.EpochRounds = 4
			sc.Faults = []Fault{{Kind: FaultByzantineClient, Client: 1, Attack: "ddos"}}
		}},
		{"byzantine client without epochs", func(sc *Scenario) {
			sc.Faults = []Fault{{Kind: FaultByzantineClient, Client: 1, Attack: "slot-jam"}}
		}},
		{"byzantine client out of range", func(sc *Scenario) {
			sc.Topology.EpochRounds = 4
			sc.Faults = []Fault{{Kind: FaultByzantineClient, Client: 6, Attack: "slot-jam"}}
		}},
		{"two byzantine faults on one member", func(sc *Scenario) {
			sc.Topology.EpochRounds = 4
			sc.Faults = []Fault{
				{Kind: FaultByzantineClient, Client: 1, Attack: "slot-jam"},
				{Kind: FaultByzantineClient, Client: 1, Attack: "equivocate"},
			}
		}},
	}
	for _, tc := range cases {
		sc := base()
		tc.mut(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, sc)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base scenario invalid: %v", err)
	}
}

// --- report schema ---------------------------------------------------

func TestValidateReport(t *testing.T) {
	good := Report{
		GoVersion: "go1.24.0",
		Scenario:  "probe",
		Results: []Row{
			{Name: "rounds-per-sec", Value: 3.5, Unit: "rounds/s"},
			{Name: "bytes-moved", Value: 1024, Unit: "bytes"},
		},
	}
	if err := ValidateReport(good); err != nil {
		t.Fatalf("good report rejected: %v", err)
	}

	bad := good
	bad.Scenario = ""
	if err := ValidateReport(bad); err == nil {
		t.Error("report without scenario accepted")
	}

	bad = good
	bad.Results = []Row{{Name: "rounds-per-sec", Value: 2}}
	if err := ValidateReport(bad); err == nil {
		t.Error("unitless row accepted")
	}

	bad = good
	bad.Results = []Row{{Name: "bytes-moved", Value: 1, Unit: "bytes"}}
	if err := ValidateReport(bad); err == nil {
		t.Error("report without rounds-per-sec accepted")
	}

	bad = good
	bad.Results[0].Value = 0
	if err := ValidateReport(bad); err == nil {
		t.Error("zero rounds-per-sec accepted")
	}
}

func readReport(t *testing.T, path string) Report {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	return rep
}

// TestReportRoundTrip pins the BENCH_<scenario>.json schema both ways:
// a written report reads back valid and unchanged, and every report
// committed at the repository root — recorded before the per-op
// microbenchmark fields left the schema — still decodes and validates.
func TestReportRoundTrip(t *testing.T) {
	res := &Result{
		Scenario:     Scenario{Name: "probe", Mode: ModeSim, Topology: Topology{Servers: 3, Clients: 4}},
		Rounds:       10,
		RoundsPerSec: 2.5,
		WorkloadRows: []Row{{Name: "probe-row", Value: 7, Unit: "things"}},
	}
	path, err := res.WriteReport(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := readReport(t, path), res.Report(); !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the report:\n got %+v\nwant %+v", got, want)
	}

	committed, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(committed) == 0 {
		t.Fatalf("no committed scenario reports found: %v", err)
	}
	for _, path := range committed {
		rep := readReport(t, path)
		if err := ValidateReport(rep); err != nil {
			t.Errorf("%s: %v", path, err)
		}
		if want := "BENCH_" + rep.Scenario + ".json"; filepath.Base(path) != want {
			t.Errorf("%s names scenario %q", path, rep.Scenario)
		}
	}
}

func TestPercentile(t *testing.T) {
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v", got)
	}
	samples := []time.Duration{40, 10, 30, 20, 50}
	if got := percentile(samples, 50); got != 30 {
		t.Errorf("p50 = %v, want 30", got)
	}
	if got := percentile(samples, 99); got != 50 {
		t.Errorf("p99 = %v, want 50", got)
	}
	if got := percentile(samples, 0); got != 10 {
		t.Errorf("p0 = %v, want 10", got)
	}
}

// --- end-to-end scenarios --------------------------------------------

// runScenario executes a scenario with test-friendly options and fails
// the test on any error.
func runScenario(t *testing.T, sc Scenario, opts Options) *Result {
	t.Helper()
	if testing.Short() {
		t.Skip("cluster scenarios are long; skipped with -short")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	if opts.ScrapeInterval == 0 {
		opts.ScrapeInterval = 100 * time.Millisecond
	}
	opts.Logf = t.Logf
	res, err := Run(ctx, sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.check(); err != nil {
		t.Fatal(err)
	}
	return res
}

// row finds a workload/report row by name.
func row(t *testing.T, res *Result, name string) Row {
	t.Helper()
	for _, r := range res.Report().Results {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("report lacks the %q row; have %+v", name, res.Report().Results)
	return Row{}
}

func TestScenarioMicroblogSim(t *testing.T) {
	sc := Scenario{
		Name:     "test-microblog",
		Mode:     ModeSim,
		Topology: Topology{Servers: 3, Clients: 4},
		Workload: Workload{Kind: WorkloadMicroblog, Posters: 2, PostBytes: 96, PostEvery: 100 * time.Millisecond},
		Run:      6 * time.Second,
		Drain:    time.Second,
	}
	res := runScenario(t, sc, Options{})
	if res.Rounds == 0 || res.RoundsPerSec <= 0 {
		t.Fatalf("no rounds: %+v", res)
	}
	if sent := row(t, res, "microblog-posts-sent"); sent.Value < 1 {
		t.Errorf("posts sent = %v", sent.Value)
	}
	if ratio := row(t, res, "microblog-fanout-ratio"); ratio.Value <= 0 {
		t.Errorf("fan-out ratio = %v", ratio.Value)
	}
	if res.BytesMoved == 0 {
		t.Error("no wire bytes counted")
	}

	// The emitted report must round-trip through the report schema.
	dir := t.TempDir()
	path, err := res.WriteReport(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_test-microblog.json" {
		t.Errorf("unexpected report name %s", path)
	}
	if err := ValidateReport(readReport(t, path)); err != nil {
		t.Fatal(err)
	}
}

func TestScenarioPartitionHealSim(t *testing.T) {
	sc := Scenario{
		Name:     "test-partition-heal",
		Mode:     ModeSim,
		Topology: Topology{Servers: 3, Clients: 4},
		Workload: Workload{Kind: WorkloadMicroblog, Posters: 1, PostBytes: 96, PostEvery: 100 * time.Millisecond},
		Faults: []Fault{
			{Kind: FaultPartitionServer, Server: 2, At: 2 * time.Second, Duration: 2 * time.Second},
		},
		Run:   9 * time.Second,
		Drain: time.Second,
	}
	res := runScenario(t, sc, Options{})
	// Certification needs every server, so rounds must have kept going
	// only because the partition healed: the run still certifies rounds
	// overall, and healthy-latency percentiles exist.
	if res.Rounds == 0 {
		t.Fatal("no rounds certified across the partition window")
	}
	if res.HealthyP50 <= 0 {
		t.Error("no healthy-round latency samples")
	}
}

// TestScenarioPartitionHealPipelinedSim reruns the partition/heal
// scenario with the whole group at pipeline depth 2 and short epochs:
// every epoch boundary forces the two-deep pipeline to drain to depth
// 1 before the beacon rotates, and the healed partition must resume
// overlapped rounds. A drain failure diverges the group (layout
// mismatch → protocol violations → no further certified rounds), so
// rounds certifying across many boundaries is the drain assertion.
func TestScenarioPartitionHealPipelinedSim(t *testing.T) {
	sc := Scenario{
		Name:     "test-partition-heal-pipelined",
		Mode:     ModeSim,
		Topology: Topology{Servers: 3, Clients: 4, EpochRounds: 6, PipelineDepth: 2},
		Workload: Workload{Kind: WorkloadMicroblog, Posters: 1, PostBytes: 96, PostEvery: 100 * time.Millisecond},
		Faults: []Fault{
			{Kind: FaultPartitionServer, Server: 2, At: 2 * time.Second, Duration: 2 * time.Second},
		},
		Run:   9 * time.Second,
		Drain: time.Second,
	}
	res := runScenario(t, sc, Options{})
	if res.Rounds == 0 {
		t.Fatal("no rounds certified across the partition window at depth 2")
	}
	// With 6-round epochs the run crosses boundaries both before and
	// after the heal; surviving them plus the partition means the
	// pipeline drained and refilled repeatedly.
	if res.Rounds < 12 {
		t.Errorf("only %d rounds certified — pipeline likely wedged after the heal", res.Rounds)
	}
	if res.HealthyP50 <= 0 {
		t.Error("no healthy-round latency samples")
	}
}

func TestScenarioChurnStormSim(t *testing.T) {
	sc := Scenario{
		Name:     "test-churn-storm",
		Mode:     ModeSim,
		Topology: Topology{Servers: 3, Clients: 6, EpochRounds: 4},
		Workload: Workload{Kind: WorkloadChurnStorm, Victims: 1, Storms: 1},
		Run:      60 * time.Second,
		Drain:    time.Second,
	}
	res := runScenario(t, sc, Options{})
	if storms := row(t, res, "churn-storms-completed"); storms.Value < 1 {
		t.Fatalf("no churn storm completed: %v", storms.Value)
	}
	if res.ChurnExpels < 1 || res.ChurnJoins < 1 {
		t.Errorf("scraped churn counters: joins=%d expels=%d", res.ChurnJoins, res.ChurnExpels)
	}
}

func TestScenarioSocksBrowseSim(t *testing.T) {
	sc := Scenario{
		Name:     "test-socks-browse",
		Mode:     ModeSim,
		Topology: Topology{Servers: 3, Clients: 3, OpenLen: 1024},
		Workload: Workload{Kind: WorkloadSocksBrowse, Browsers: 1, Pages: 2},
		Run:      60 * time.Second,
		Drain:    time.Second,
	}
	res := runScenario(t, sc, Options{})
	if pages := row(t, res, "browse-pages-fetched"); pages.Value != 2 {
		t.Fatalf("pages fetched = %v, want 2", pages.Value)
	}
	if p50 := row(t, res, "browse-page-p50"); p50.Value <= 0 {
		t.Errorf("page p50 = %v", p50.Value)
	}
}

// TestSocksBrowseUnderChurn exercises the SOCKS relay end to end while
// an uninvolved client is repeatedly expelled and rejoined: pages must
// keep landing across epoch rotations and certified roster updates.
func TestSocksBrowseUnderChurn(t *testing.T) {
	sc := Scenario{
		Name:     "test-browse-under-churn",
		Mode:     ModeSim,
		Topology: Topology{Servers: 3, Clients: 5, EpochRounds: 4},
		Workload: Workload{Kind: WorkloadSocksBrowse, Browsers: 1, Pages: 2, ChurnVictims: 1},
		Run:      25 * time.Second,
		Drain:    time.Second,
	}
	res := runScenario(t, sc, Options{})
	if pages := row(t, res, "browse-pages-fetched"); pages.Value != 2 {
		t.Fatalf("pages fetched under churn = %v, want 2", pages.Value)
	}
	if cycles := row(t, res, "background-churn-cycles"); cycles.Value < 1 {
		t.Errorf("background churn cycles = %v, want >= 1", cycles.Value)
	}
}

// TestScenarioByzantineServerSim runs a corrupt-share byzantine server
// through the scenario harness: the blame path must expose the server
// while honest rounds keep certifying, and the report must carry the
// byzantine outcome rows.
func TestScenarioByzantineServerSim(t *testing.T) {
	sc := Scenario{
		Name:     "test-byzantine-server",
		Mode:     ModeSim,
		Topology: Topology{Servers: 3, Clients: 4},
		Workload: Workload{Kind: WorkloadMicroblog, Posters: 1, PostBytes: 96, PostEvery: 100 * time.Millisecond},
		Faults: []Fault{
			{Kind: FaultByzantineServer, Server: 1, Attack: "corrupt-share", At: 2 * time.Second, Duration: 3 * time.Second},
		},
		Run:   12 * time.Second,
		Drain: time.Second,
	}
	res := runScenario(t, sc, Options{})
	if res.Byzantine == nil {
		t.Fatal("no byzantine outcome recorded")
	}
	if !res.Byzantine.Expelled {
		t.Fatalf("byzantine server never exposed: %+v (blame=%d misbehavior=%v)",
			res.Byzantine, res.BlameRounds, res.Misbehavior)
	}
	if res.Byzantine.TimeToExpel <= 0 {
		t.Errorf("time-to-exposure = %v", res.Byzantine.TimeToExpel)
	}
	if res.BlameRounds == 0 {
		t.Error("no blame rounds scraped during the attack")
	}
	if res.Rounds == 0 {
		t.Fatal("honest traffic never recovered: no rounds certified")
	}
	if row(t, res, "byzantine-expelled").Value != 1 {
		t.Error("report lacks byzantine-expelled = 1")
	}
	if row(t, res, "time-to-expel-seconds").Value <= 0 {
		t.Error("report lacks a positive time-to-expel-seconds")
	}
}

// TestScenarioSlotJammerSim runs the full client attack arc at cluster
// scale: the last client jams a victim slot, the accusation shuffle
// pins it, and the certified roster removal lands at an epoch boundary
// while rounds keep turning over.
func TestScenarioSlotJammerSim(t *testing.T) {
	sc := Scenario{
		Name:     "test-slot-jammer",
		Mode:     ModeSim,
		Topology: Topology{Servers: 3, Clients: 5, EpochRounds: 4},
		Workload: Workload{Kind: WorkloadMicroblog, Posters: 1, PostBytes: 96, PostEvery: 100 * time.Millisecond},
		Faults: []Fault{
			{Kind: FaultByzantineClient, Client: 4, Attack: "slot-jam", At: 2 * time.Second},
		},
		Run:   25 * time.Second,
		Drain: time.Second,
	}
	res := runScenario(t, sc, Options{})
	if res.Byzantine == nil || !res.Byzantine.Expelled {
		t.Fatalf("slot jammer never expelled: %+v (blame=%d misbehavior=%v expels=%d)",
			res.Byzantine, res.BlameRounds, res.Misbehavior, res.ChurnExpels)
	}
	if res.Byzantine.TimeToExpel <= 0 || res.Byzantine.RoundsToExpel == 0 {
		t.Errorf("time-to-expel = %v / %d rounds", res.Byzantine.TimeToExpel, res.Byzantine.RoundsToExpel)
	}
	if res.Byzantine.AttackRoundsPerSec <= 0 {
		t.Errorf("no honest goodput measured under attack: %+v", res.Byzantine)
	}
	if res.ChurnExpels == 0 {
		t.Error("no certified expulsion scraped")
	}
	if row(t, res, "time-to-expel-rounds").Value <= 0 {
		t.Error("report lacks a positive time-to-expel-rounds")
	}
	if row(t, res, "honest-goodput-under-attack").Value <= 0 {
		t.Error("report lacks honest-goodput-under-attack")
	}
}

func TestScenarioMicroblogTCP(t *testing.T) {
	sc := Scenario{
		Name:     "test-microblog-tcp",
		Mode:     ModeTCP,
		Topology: Topology{Servers: 3, Clients: 4},
		Workload: Workload{Kind: WorkloadMicroblog, Posters: 1, PostBytes: 96, PostEvery: 150 * time.Millisecond},
		Run:      8 * time.Second,
		Drain:    time.Second,
	}
	// WorkerExe defaults to os.Executable() — the test binary, whose
	// TestMain dispatches on WorkerEnv.
	res := runScenario(t, sc, Options{})
	if res.Rounds == 0 {
		t.Fatal("no rounds certified over tcp")
	}
	if sent := row(t, res, "microblog-posts-sent"); sent.Value < 1 {
		t.Errorf("posts sent = %v", sent.Value)
	}
}
