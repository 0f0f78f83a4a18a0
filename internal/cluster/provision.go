package cluster

import (
	"fmt"
	"path/filepath"
	"time"

	"dissent"
	"dissent/dissentcfg"
)

// policy derives the group policy a topology runs under: test-grade
// shuffle parameters (scenarios measure systems behavior, not bignum
// throughput), short windows so rounds turn over fast, and — when
// epochs are on — the same relaxed churn thresholds the SDK's churn
// tests use, so a storm of simultaneous expulsions cannot stall the
// participation floor.
func (t Topology) policy() dissent.Policy {
	p := dissent.DefaultPolicy()
	p.MessageGroup = "modp-512-test"
	if t.MessageGroup != "" {
		p.MessageGroup = t.MessageGroup
	}
	p.WindowMin = 15 * time.Millisecond
	if t.WindowMin > 0 {
		p.WindowMin = t.WindowMin
	}
	p.HardTimeout = 30 * time.Second
	if t.HardTimeout > 0 {
		p.HardTimeout = t.HardTimeout
	}
	p.DefaultOpenLen = 256
	if t.OpenLen > 0 {
		p.DefaultOpenLen = t.OpenLen
	}
	// Cluster rounds turn over in single-digit milliseconds, so the
	// default 8-round trace retention is ~50ms of wall clock — shorter
	// than a victim's detect-accuse-shuffle arc under load, which
	// squashes accusations into inconclusive verdicts. Scale retention
	// to the round rate instead of the paper's seconds-per-round pace.
	p.RetainRounds = 64
	p.BeaconEpochRounds = t.EpochRounds
	if t.EpochRounds > 0 {
		p.ReadmitCooldownRounds = 0
		p.Alpha = 0.5
		p.WindowThreshold = 0.6
		p.OpenAdmission = false
	}
	return p
}

// material is the provisioned group: definition plus every member's
// keys, in definition order.
type material struct {
	grp        *dissent.Group
	serverKeys []dissent.Keys
	clientKeys []dissent.Keys
	dir        string
	// pipelineDepth is the topology's round pipeline depth, applied to
	// every member's session options at deployment (0/1 = serial).
	pipelineDepth int
	// durableStores gives each tcp-mode server worker a state store
	// file beside its other material (Topology.DurableStores).
	durableStores bool
	// byz is the compiled byzantine fault schedule: deployment installs
	// its gated interdicts on the targeted members (nil = none).
	byz *byzPlan
}

// provision generates the group's material on disk through dissentcfg
// — the same files a real deployment starts from — and loads every
// member's keys back in definition order.
func provision(dir string, sc Scenario) (*material, error) {
	pol := sc.Topology.policy()
	grp, err := dissentcfg.Generate(dir, dissentcfg.GenerateConfig{
		Name:    "cluster-" + sc.Name,
		Servers: sc.Topology.Servers,
		Clients: sc.Topology.Clients,
		Policy:  &pol,
		// -1 keeps the policy's epoch setting (0 would override it off).
		BeaconEpochRounds: -1,
	})
	if err != nil {
		return nil, err
	}
	m := &material{grp: grp, dir: dir, pipelineDepth: sc.Topology.PipelineDepth, durableStores: sc.Topology.DurableStores}
	for i := range grp.Servers {
		k, err := dissentcfg.LoadKeys(filepath.Join(dir, fmt.Sprintf("server-%d.key", i)), grp)
		if err != nil {
			return nil, err
		}
		m.serverKeys = append(m.serverKeys, k)
	}
	for i := range grp.Clients {
		k, err := dissentcfg.LoadKeys(filepath.Join(dir, fmt.Sprintf("client-%d.key", i)), grp)
		if err != nil {
			return nil, err
		}
		m.clientKeys = append(m.clientKeys, k)
	}
	return m, nil
}
