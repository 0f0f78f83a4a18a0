package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// Row is one named measurement of a scenario run.
type Row struct {
	Name  string  `json:"name"`
	Value float64 `json:"value,omitempty"`
	Unit  string  `json:"unit"`
}

// Report is the BENCH_<scenario>.json document: the scenario's rows
// plus enough environment to compare runs across machines.
type Report struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// NumCPU is the machine's visible CPU count — read alongside
	// GOMAXPROCS to spot oversubscribed runs.
	NumCPU   int    `json:"num_cpu"`
	Scenario string `json:"scenario"`
	// Note records the deployment mode and topology.
	Note    string `json:"note"`
	Results []Row  `json:"results"`
}

// Report renders the result as the scenario's report document.
func (r *Result) Report() Report {
	rep := Report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Scenario:   r.Scenario.Name,
		Note:       fmt.Sprintf("cluster scenario, mode=%s, %dx%d", r.Scenario.Mode, r.Scenario.Topology.Servers, r.Scenario.Topology.Clients),
	}
	add := func(name string, value float64, unit string) {
		rep.Results = append(rep.Results, Row{Name: name, Value: value, Unit: unit})
	}
	add("rounds-completed", float64(r.Rounds), "rounds")
	add("rounds-per-sec", r.RoundsPerSec, "rounds/s")
	if r.HealthyP50 > 0 {
		add("round-latency-healthy-p50", float64(r.HealthyP50.Nanoseconds()), "ns")
		add("round-latency-healthy-p99", float64(r.HealthyP99.Nanoseconds()), "ns")
	}
	if r.FaultP50 > 0 {
		add("round-latency-fault-p50", float64(r.FaultP50.Nanoseconds()), "ns")
		add("round-latency-fault-p99", float64(r.FaultP99.Nanoseconds()), "ns")
	}
	if r.DegradationRatio > 0 {
		add("fault-degradation-ratio", r.DegradationRatio, "ratio")
	}
	add("bytes-moved", float64(r.BytesMoved), "bytes")
	if r.ChurnJoins > 0 || r.ChurnExpels > 0 {
		add("churn-joins", float64(r.ChurnJoins), "members")
		add("churn-expels", float64(r.ChurnExpels), "members")
	}
	if r.DialFailures > 0 {
		add("transport-dial-failures", float64(r.DialFailures), "dials")
	}
	if r.StateRestores > 0 {
		add("state-restores", float64(r.StateRestores), "restores")
	}
	if r.BlameRounds > 0 {
		add("blame-rounds", float64(r.BlameRounds), "rounds")
	}
	if len(r.Misbehavior) > 0 {
		var total uint64
		for _, n := range r.Misbehavior {
			total += n
		}
		add("misbehavior-observed", float64(total), "events")
	}
	if b := r.Byzantine; b != nil {
		expelled := 0.0
		if b.Expelled {
			expelled = 1.0
		}
		add("byzantine-expelled", expelled, "bool")
		if b.Expelled {
			add("time-to-expel-seconds", b.TimeToExpel.Seconds(), "s")
			add("time-to-expel-rounds", float64(b.RoundsToExpel), "rounds")
		}
		if b.TimeToVerdict > 0 {
			add("time-to-verdict-seconds", b.TimeToVerdict.Seconds(), "s")
		}
		add("honest-goodput-under-attack", b.AttackRoundsPerSec, "rounds/s")
	}
	rep.Results = append(rep.Results, r.WorkloadRows...)
	return rep
}

// WriteReport writes BENCH_<scenario>.json into dir and returns the
// path.
func (r *Result) WriteReport(dir string) (string, error) {
	if err := r.check(); err != nil {
		return "", err
	}
	rep := r.Report()
	if err := ValidateReport(rep); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	data = append(data, '\n')
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+r.Scenario.Name+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// ValidateReport checks a scenario report is schema-complete: CI's
// scenario-smoke job gates on this, and the tests pin it.
func ValidateReport(rep Report) error {
	if rep.Scenario == "" {
		return fmt.Errorf("cluster: report lacks a scenario name")
	}
	if rep.GoVersion == "" {
		return fmt.Errorf("cluster: report lacks the Go version")
	}
	var roundsPerSec *Row
	for i := range rep.Results {
		res := &rep.Results[i]
		if res.Name == "" {
			return fmt.Errorf("cluster: report row %d lacks a name", i)
		}
		if res.Unit == "" {
			return fmt.Errorf("cluster: report row %q lacks a unit", res.Name)
		}
		if res.Name == "rounds-per-sec" {
			roundsPerSec = res
		}
	}
	if roundsPerSec == nil {
		return fmt.Errorf("cluster: report lacks the rounds-per-sec row")
	}
	if roundsPerSec.Value <= 0 {
		return fmt.Errorf("cluster: rounds-per-sec is %v — rounds never proceeded", roundsPerSec.Value)
	}
	return nil
}
