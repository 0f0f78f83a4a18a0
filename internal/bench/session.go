package bench

import (
	"fmt"
	"math/rand"
	"time"

	"dissent/internal/core"
	"dissent/internal/crypto"
	"dissent/internal/group"
	"dissent/internal/obs"
	"dissent/internal/simnet"
)

// Profile is a testbed topology from the paper's evaluation.
type Profile struct {
	Name string
	// ServerLatency is the one-way server–server delay.
	ServerLatency time.Duration
	// ClientLatency is the one-way client–server delay (base; PlanetLab
	// adds per-client jitter).
	ClientLatency time.Duration
	ClientJitter  time.Duration
	// Bandwidths in bytes/sec (0 = infinite).
	ServerBandwidth float64
	ClientBandwidth float64
	// Delays injects per-round client submission delays (nil = none).
	Delays *simnet.Trace
}

// DeterLab reproduces §5.2's controlled topology: servers on a
// 100 Mbit/s network with 10 ms latency; clients on 100 Mbit/s uplinks
// (shared by 16 client processes per machine) with 50 ms latency.
func DeterLab() Profile {
	return Profile{
		Name:            "DeterLab",
		ServerLatency:   10 * time.Millisecond,
		ClientLatency:   50 * time.Millisecond,
		ServerBandwidth: simnet.Mbps(100),
		ClientBandwidth: simnet.Mbps(100.0 / 16),
	}
}

// PlanetLab reproduces the wide-area deployment: 16 EC2 servers plus a
// control server ~14 ms apart, public-Internet clients with jittery
// latency and heavy-tailed submission delays.
func PlanetLab(rounds, clients int, seed int64) Profile {
	return Profile{
		Name:            "PlanetLab",
		ServerLatency:   7 * time.Millisecond, // ~14 ms RTT
		ClientLatency:   45 * time.Millisecond,
		ClientJitter:    60 * time.Millisecond,
		ServerBandwidth: simnet.Mbps(100),
		ClientBandwidth: simnet.Mbps(10),
		Delays:          simnet.GenerateTrace(simnet.PlanetLabModel(), rounds, clients, seed),
	}
}

// EmulabWiFi reproduces §5.4's simulated wireless LAN: a 24 Mbit/s
// medium with 10 ms hops through a central switch (~20 ms node to
// node). The medium is shared — roughly 30 stations contend for the
// same 24 Mbit/s — which we fold into a per-node access rate of about
// a sixth of the nominal link (typical CSMA efficiency under load).
func EmulabWiFi() Profile {
	return Profile{
		Name:            "EmulabWiFi",
		ServerLatency:   20 * time.Millisecond,
		ClientLatency:   20 * time.Millisecond,
		ServerBandwidth: simnet.Mbps(24.0 / 6),
		ClientBandwidth: simnet.Mbps(24.0 / 6),
	}
}

// SessionConfig sizes one simulated deployment.
type SessionConfig struct {
	Servers int
	Clients int
	Profile Profile
	// SlotLen is the DC-net default open-slot length.
	SlotLen int
	// MaxSlotLen caps slot growth (0 = policy default).
	MaxSlotLen int
	// MeasureCompute charges real crypto execution time as virtual
	// time (scale 1.0). Zero disables.
	MeasureCompute float64
	// Policy overrides (zero values keep defaults).
	Alpha           float64
	AlphaSet        bool
	WindowThreshold float64
	WindowMult      float64
	HardTimeout     time.Duration
	WindowMin       time.Duration
	Seed            int64
}

// Session is a bootstrapped simulated deployment ready to run rounds.
type Session struct {
	Def     *group.Definition
	Servers []*core.Server
	Clients []*core.Client
	H       *core.Harness
	Profile Profile

	clientLat []time.Duration // per-client latency (jittered)
	serverIDs map[group.NodeID]bool
	clientIdx map[group.NodeID]int
}

// BuildSession constructs engines, topology, and harness.
func BuildSession(cfg SessionConfig) (*Session, error) {
	keyGrp := crypto.P256()
	msgGrp := crypto.ModP512Test() // blame group unused by round benches
	rng := rand.New(rand.NewSource(cfg.Seed + 7))

	serverKPs := make([]*crypto.KeyPair, cfg.Servers)
	serverMsgKPs := make([]*crypto.KeyPair, cfg.Servers)
	serverKeys := make([]crypto.Element, cfg.Servers)
	serverMsgKeys := make([]crypto.Element, cfg.Servers)
	for i := range serverKPs {
		serverKPs[i], _ = crypto.GenerateKeyPair(keyGrp, nil)
		serverMsgKPs[i], _ = crypto.GenerateKeyPair(msgGrp, nil)
		serverKeys[i] = serverKPs[i].Public
		serverMsgKeys[i] = serverMsgKPs[i].Public
	}
	clientKPs := make([]*crypto.KeyPair, cfg.Clients)
	clientKeys := make([]crypto.Element, cfg.Clients)
	for i := range clientKPs {
		clientKPs[i], _ = crypto.GenerateKeyPair(keyGrp, nil)
		clientKeys[i] = clientKPs[i].Public
	}

	policy := group.DefaultPolicy()
	policy.MessageGroup = "modp-512-test"
	policy.RetainRounds = 2 // bound memory at 5,000-client scale
	// The beacon is not part of the paper's measured protocol.
	policy.BeaconEpochRounds = 0
	if cfg.SlotLen > 0 {
		policy.DefaultOpenLen = cfg.SlotLen
	}
	if cfg.MaxSlotLen > 0 {
		policy.MaxSlotLen = cfg.MaxSlotLen
	}
	if cfg.AlphaSet {
		policy.Alpha = cfg.Alpha
	}
	if cfg.WindowThreshold > 0 {
		policy.WindowThreshold = cfg.WindowThreshold
	}
	if cfg.WindowMult > 0 {
		policy.WindowMultiplier = cfg.WindowMult
	}
	if cfg.HardTimeout > 0 {
		policy.HardTimeout = cfg.HardTimeout
	}
	if cfg.WindowMin > 0 {
		policy.WindowMin = cfg.WindowMin
	}

	def, err := group.NewDefinition(fmt.Sprintf("bench-%s-%dx%d", cfg.Profile.Name, cfg.Servers, cfg.Clients),
		serverKeys, serverMsgKeys, clientKeys, policy)
	if err != nil {
		return nil, err
	}

	kpByID := make(map[group.NodeID]*crypto.KeyPair)
	msgKPByID := make(map[group.NodeID]*crypto.KeyPair)
	for i := range serverKPs {
		id := group.IDFromKey(keyGrp, serverKeys[i])
		kpByID[id] = serverKPs[i]
		msgKPByID[id] = serverMsgKPs[i]
	}
	for i := range clientKPs {
		kpByID[group.IDFromKey(keyGrp, clientKeys[i])] = clientKPs[i]
	}

	opts := core.Options{
		MessageGroup: msgGrp,
		// Background prefetch would move pad work outside the engine
		// calls whose real execution time MeasureCompute charges as
		// virtual time; keep the simulator's cost accounting
		// well-defined by expanding pads on-call.
		NoPadPrefetch: true,
	}

	s := &Session{
		Def:       def,
		H:         core.NewHarness(),
		Profile:   cfg.Profile,
		serverIDs: make(map[group.NodeID]bool),
		clientIdx: make(map[group.NodeID]int),
	}
	s.H.MeasureCompute = cfg.MeasureCompute

	for _, mem := range def.Servers {
		srv, err := core.NewServer(def, kpByID[mem.ID], msgKPByID[mem.ID], opts)
		if err != nil {
			return nil, err
		}
		s.Servers = append(s.Servers, srv)
		s.serverIDs[mem.ID] = true
		s.H.AddNode(mem.ID, srv, cfg.Profile.ServerBandwidth)
	}
	s.clientLat = make([]time.Duration, cfg.Clients)
	for i, mem := range def.Clients {
		cl, err := core.NewClient(def, kpByID[mem.ID], opts)
		if err != nil {
			return nil, err
		}
		s.Clients = append(s.Clients, cl)
		s.clientIdx[mem.ID] = i
		s.H.AddNode(mem.ID, cl, cfg.Profile.ClientBandwidth)
		s.clientLat[i] = cfg.Profile.ClientLatency
		if cfg.Profile.ClientJitter > 0 {
			s.clientLat[i] += time.Duration(rng.Int63n(int64(cfg.Profile.ClientJitter)))
		}
	}

	prof := cfg.Profile
	s.H.Latency = func(from, to group.NodeID) time.Duration {
		if s.serverIDs[from] && s.serverIDs[to] {
			return prof.ServerLatency
		}
		if ci, ok := s.clientIdx[from]; ok {
			return s.clientLat[ci]
		}
		if ci, ok := s.clientIdx[to]; ok {
			return s.clientLat[ci]
		}
		return prof.ServerLatency
	}

	if prof.Delays != nil {
		tr := prof.Delays
		s.H.Outbound = func(from group.NodeID, m *core.Message) (time.Duration, bool) {
			if m.Type != core.MsgClientSubmit {
				return 0, false
			}
			ci, ok := s.clientIdx[from]
			if !ok {
				return 0, false
			}
			d, submitted := tr.Delay(m.Round, ci)
			if !submitted {
				return 0, true
			}
			return d, false
		}
	}
	return s, nil
}

// Bootstrap installs a trusted schedule (client i ↔ slot i) and begins
// round 0 on every engine.
func (s *Session) Bootstrap() {
	slotKeys := make([]crypto.Element, len(s.Clients))
	pseu := make([]*crypto.KeyPair, len(s.Clients))
	for i := range s.Clients {
		kp, _ := crypto.GenerateKeyPair(crypto.P256(), nil)
		pseu[i] = kp
		slotKeys[i] = kp.Public
	}
	now := s.H.Net.Now()
	for _, srv := range s.Servers {
		srv := srv
		s.H.Net.Schedule(now, func(t time.Time) {
			out, err := srv.InstallSchedule(t, slotKeys)
			s.processInstall(srv.ID(), t, out, err)
		})
	}
	for i, cl := range s.Clients {
		cl, i := cl, i
		s.H.Net.Schedule(now, func(t time.Time) {
			out, err := cl.InstallSchedule(t, len(slotKeys), i, pseu[i])
			s.processInstall(cl.ID(), t, out, err)
		})
	}
}

// processInstall routes InstallSchedule outputs through the harness.
func (s *Session) processInstall(id group.NodeID, t time.Time, out *core.Output, err error) {
	s.H.ProcessExternal(id, t, out, err)
}

// RunRounds drives the network until server 0 passes the given round
// or the event budget is exhausted.
func (s *Session) RunRounds(round uint64, maxEvents int64) {
	var steps int64
	for steps < maxEvents && s.Servers[0].Round() <= round {
		if !s.H.Net.Step() {
			break
		}
		steps++
	}
}

// spans returns server 0's round spans, in round order: the engine's
// one per-round timing record, timed on its clock.
func (s *Session) spans() []obs.RoundTrace { return s.H.Traces[s.Servers[0].ID()] }
