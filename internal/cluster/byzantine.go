package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dissent"
	"dissent/internal/adversary"
	"dissent/internal/core"
)

// Byzantine fault kinds: one member runs the honest protocol with a
// scripted adversary behavior (internal/adversary) armed for the fault
// window. Sim mode only — the scripted member must run in-process so
// the interdict hook can be installed at construction.
const (
	// FaultByzantineServer arms an adversary behavior on one server for
	// the window: Fault.Server picks the member, Fault.Attack the
	// behavior (e.g. "corrupt-share", "equivocate", "withhold"). Servers
	// are fixed at genesis, so the measured outcome is exposure — the
	// first blame verdict pinning the server — not removal.
	FaultByzantineServer = "byzantine-server"
	// FaultByzantineClient arms an adversary behavior on one client:
	// Fault.Client picks the member, Fault.Attack the behavior (e.g.
	// "slot-jam", "equivocate"). The measured outcome is the certified
	// expulsion landing at an epoch boundary, so the scenario needs
	// Topology.EpochRounds > 0.
	FaultByzantineClient = "byzantine-client"
)

// validAttack checks an attack name against the adversary catalog.
func validAttack(name string) error {
	_, err := adversary.New(adversary.Behavior{Kind: adversary.Kind(name)})
	return err
}

// byzGate wraps a compiled adversary behind an atomic arm switch: the
// interdict must be installed when the member is constructed, but the
// fault schedule decides when the behavior actually runs. Disarmed,
// every hook is a pass-through.
type byzGate struct {
	armed atomic.Bool
	inner *core.Interdict
}

func newByzGate(f Fault) (*byzGate, error) {
	adv, err := adversary.New(adversary.Behavior{
		Kind: adversary.Kind(f.Attack),
		// Seeded off the schedule position so two byzantine members never
		// make correlated choices; the behavior itself stays unbounded in
		// rounds — the gate's arm window is the schedule.
		Seed: uint64(f.Server)<<32 ^ uint64(f.Client+1),
	})
	if err != nil {
		return nil, err
	}
	return &byzGate{inner: adv.Interdict()}, nil
}

// interdict returns the gated hook set to install on the member.
func (g *byzGate) interdict() *dissent.Interdict {
	return &dissent.Interdict{
		Vector: func(info core.VectorInfo, vec []byte) {
			if g.armed.Load() && g.inner.Vector != nil {
				g.inner.Vector(info, vec)
			}
		},
		Share: func(round uint64, share []byte) {
			if g.armed.Load() && g.inner.Share != nil {
				g.inner.Share(round, share)
			}
		},
		Outbound: func(env core.Envelope, resign func(*core.Message) *core.Message) []core.Envelope {
			if g.armed.Load() && g.inner.Outbound != nil {
				return g.inner.Outbound(env, resign)
			}
			return []core.Envelope{env}
		},
	}
}

// byzPlan is a scenario's compiled byzantine schedule: the gates to
// install per member index, plus the timed entries that arm them.
type byzPlan struct {
	serverGates map[int]*byzGate
	clientGates map[int]*byzGate
	entries     []byzEntry
}

type byzEntry struct {
	fault Fault
	gate  *byzGate
}

// buildByzantine compiles the scenario's byzantine faults; nil when it
// has none.
func buildByzantine(sc Scenario) (*byzPlan, error) {
	plan := &byzPlan{
		serverGates: make(map[int]*byzGate),
		clientGates: make(map[int]*byzGate),
	}
	for _, f := range sc.Faults {
		var gates map[int]*byzGate
		var idx int
		switch f.Kind {
		case FaultByzantineServer:
			gates, idx = plan.serverGates, f.Server
		case FaultByzantineClient:
			gates, idx = plan.clientGates, f.Client
		default:
			continue
		}
		if _, dup := gates[idx]; dup {
			return nil, fmt.Errorf("cluster: scenario %s: two byzantine faults target the same member", sc.Name)
		}
		g, err := newByzGate(f)
		if err != nil {
			return nil, err
		}
		gates[idx] = g
		plan.entries = append(plan.entries, byzEntry{fault: f, gate: g})
	}
	if len(plan.entries) == 0 {
		return nil, nil
	}
	return plan, nil
}

// byzRun watches one deployment's byzantine schedule play out: it arms
// the gates on the fault timetable and records the attribution events
// an honest observer client sees, reducing them to time-to-expel and
// honest goodput under attack.
type byzRun struct {
	scr     *scraper
	targets map[dissent.NodeID]string // byz member ID -> role

	mu           sync.Mutex
	armedAt      time.Time
	verdictAt    time.Time
	verdictRound uint64
	expelledAt   time.Time
	expelRound   uint64
	expelled     bool

	timers []*time.Timer
	stop   chan struct{}
}

// ByzantineOutcome is the distilled result of a byzantine fault
// schedule.
type ByzantineOutcome struct {
	// Expelled reports the terminal attribution: a certified roster
	// removal for a byzantine client, the first exposing blame verdict
	// for a byzantine server (servers are fixed at genesis).
	Expelled bool
	// TimeToExpel / RoundsToExpel measure from the first arming of a
	// byzantine behavior to the terminal attribution, in wall seconds
	// and certified rounds.
	TimeToExpel   time.Duration
	RoundsToExpel uint64
	// TimeToVerdict measures to the first blame verdict naming the
	// member (zero when attribution went through ledger escalation
	// without an accusation shuffle).
	TimeToVerdict time.Duration
	// AttackRounds / AttackRoundsPerSec are the rounds the honest
	// members certified while the attack was live — goodput under
	// attack, taken from arming to expulsion (or to run end when the
	// member survived).
	AttackRounds       uint64
	AttackRoundsPerSec float64
}

// startByzantine installs the fault timetable and the observer watch.
// The observer is the first honest in-process client (clients run in
// the driver process in every mode).
func startByzantine(dep *deployment, plan *byzPlan, scr *scraper) (*byzRun, error) {
	r := &byzRun{
		scr:     scr,
		targets: make(map[dissent.NodeID]string),
		stop:    make(chan struct{}),
	}
	for idx := range plan.serverGates {
		r.targets[dep.grp.Servers[idx].ID] = "server"
	}
	var observer *dissent.Session
	for i, c := range dep.clients {
		if _, byzantine := plan.clientGates[i]; byzantine {
			r.targets[c.ID()] = "client"
			continue
		}
		if observer == nil {
			observer = c
		}
	}
	if observer == nil {
		return nil, fmt.Errorf("cluster: byzantine schedule leaves no honest client to observe attribution")
	}

	// Subscribe before arming anything so no attribution event is lost.
	expelCh := observer.Subscribe(dissent.EventMemberExpelled)
	verdictCh := observer.Subscribe(dissent.EventBlameVerdict)
	go r.watch(expelCh, verdictCh)

	for _, e := range plan.entries {
		e := e
		r.timers = append(r.timers, time.AfterFunc(e.fault.At, func() {
			e.gate.armed.Store(true)
			// Only the wall clock is pinned here: the attribution events
			// race this callback, and a scrape (seconds under load) would
			// let a fast verdict record its timestamp first. The arm-time
			// round number is recovered from the round traces afterwards.
			r.mu.Lock()
			if r.armedAt.IsZero() {
				r.armedAt = time.Now()
			}
			r.mu.Unlock()
		}))
		if e.fault.Duration > 0 {
			r.timers = append(r.timers, time.AfterFunc(e.fault.At+e.fault.Duration, func() {
				e.gate.armed.Store(false)
			}))
		}
	}
	return r, nil
}

// watch reduces the observer's event streams to the first attribution
// timestamps. A blame verdict is terminal for a server target
// (exposure); a client target's terminal event is the certified
// removal, which ledger escalation reaches without any verdict.
func (r *byzRun) watch(expelCh, verdictCh <-chan dissent.Event) {
	for {
		select {
		case <-r.stop:
			return
		case e, ok := <-expelCh:
			if !ok {
				return
			}
			if _, hit := r.targets[e.Culprit]; hit && r.recordTerminal(e) {
				return
			}
		case e, ok := <-verdictCh:
			if !ok {
				return
			}
			role, hit := r.targets[e.Culprit]
			if !hit {
				continue
			}
			r.mu.Lock()
			if r.verdictAt.IsZero() {
				r.verdictAt = time.Now()
				r.verdictRound = e.Round
			}
			r.mu.Unlock()
			if role == "server" && r.recordTerminal(e) {
				return
			}
		}
	}
}

func (r *byzRun) recordTerminal(e dissent.Event) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.expelled {
		return true
	}
	r.expelled = true
	r.expelledAt = time.Now()
	r.expelRound = e.Round
	return true
}

// halt cancels pending arm timers and the watcher.
func (r *byzRun) halt() {
	for _, t := range r.timers {
		t.Stop()
	}
	close(r.stop)
}

// outcome reduces the recorded timestamps after the run's final scrape.
func (r *byzRun) outcome() *ByzantineOutcome {
	r.mu.Lock()
	defer r.mu.Unlock()
	o := &ByzantineOutcome{Expelled: r.expelled}
	if r.armedAt.IsZero() {
		return o
	}
	// The arm-time round number comes from the trace union after the
	// fact: the newest server round that started before the arm
	// timestamp. The arm callback itself must not scrape (seconds under
	// load) or a fast verdict would beat armedAt into the record.
	roundAtArm := r.scr.roundAt(r.armedAt)
	// End of the measured attack span: the terminal attribution, or the
	// run's end for a member that survived (outcome runs after the final
	// scrape, so lastRound is fresh then).
	end, endRound := time.Now(), r.scr.counters().lastRound
	if r.expelled {
		end, endRound = r.expelledAt, r.expelRound
		o.TimeToExpel = r.expelledAt.Sub(r.armedAt)
	}
	if !r.verdictAt.IsZero() {
		o.TimeToVerdict = r.verdictAt.Sub(r.armedAt)
	}
	if endRound > roundAtArm {
		o.AttackRounds = endRound - roundAtArm
	}
	if r.expelled {
		o.RoundsToExpel = o.AttackRounds
	}
	if secs := end.Sub(r.armedAt).Seconds(); secs > 0 {
		o.AttackRoundsPerSec = float64(o.AttackRounds) / secs
	}
	return o
}
