package main

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dissent"
)

// The timed run drives the real SDK stack — one dissent.Host and one
// session per member, all in this process, wall clock, tracing off —
// and touches only Host, OpenSession, Session, SimNet and
// OpenStateStore. It yields the end-to-end metrics and the per-layer
// rows that public APIs expose from outside.

const (
	// segments is how many groups a run stands up and measures in turn,
	// each for an equal share of the window (see segment). setup_s is the
	// median over them — and over more stand-ups, up to three times as
	// many, until setupBudget is spent.
	segments    = 4
	setupBudget = 1500 * time.Millisecond
	warmup      = time.Second
	drainLimit  = 5 * time.Second
	// maxGeneratorLate invalidates a run whose open-loop generator, not
	// the program, was the bottleneck.
	maxGeneratorLate = 50 * time.Millisecond
	pollEvery        = 200 * time.Millisecond
)

// timedConfig is what a timed run needs beyond the workload.
type timedConfig struct {
	Seed     uint64
	Seconds  time.Duration // measurement window, split over the segments
	Warmup   time.Duration // per segment
	Segments int
	OutDir   string // store files live under here
}

// timedResult carries everything the timed run measured.
type timedResult struct {
	endToEnd map[string]float64
	layer    map[string]float64 // the per-layer rows read from outside (T)

	attempted, failed int
	violation         string // first oracle violation, "" when clean
	invalid           string // run-validity problem (generator late), "" when valid
	// softErrors counts what the SDK's error handlers saw up to the end
	// of drain: transport read failures, messages an engine rejected.
	softErrors int64
}

// member is one group member's place in the process.
type member struct {
	keys  dissent.Keys
	id    dissent.NodeID
	host  *dissent.Host
	sess  *dissent.Session
	store *dissent.StateStore
}

// liveGroup is one stood-up group.
type liveGroup struct {
	w       Workload
	servers []*member // definition order
	clients []*member
	sim     *dissent.SimNet
	dir     string
	softErr atomic.Int64
	drains  sync.WaitGroup
}

// groupKeys is the offline part of setup (the keygen tool's job): key
// generation and the group definition, excluded from setup_s.
type groupKeys struct {
	def     *dissent.Group
	servers []dissent.Keys // definition order
	clients []dissent.Keys
}

func generateGroup(w Workload) (*groupKeys, error) {
	policy := w.policy()
	sk := make([]dissent.Keys, numServers)
	for i := range sk {
		k, err := dissent.GenerateServerKeys(policy)
		if err != nil {
			return nil, err
		}
		sk[i] = k
	}
	ck := make([]dissent.Keys, w.Clients)
	for i := range ck {
		k, err := dissent.GenerateClientKeys()
		if err != nil {
			return nil, err
		}
		ck[i] = k
	}
	def, err := dissent.NewGroup("bench-"+w.Name, sk, ck, policy)
	if err != nil {
		return nil, err
	}
	// NewGroup sorts members by ID; put the keys in definition order so
	// "server 0" and "the highest-index client" mean what they say.
	g := def.Group()
	byPub := make(map[string]dissent.Keys, len(sk)+len(ck))
	for _, k := range append(append([]dissent.Keys(nil), sk...), ck...) {
		byPub[string(g.Encode(k.Identity.Public))] = k
	}
	gk := &groupKeys{def: def}
	for _, m := range def.Servers {
		gk.servers = append(gk.servers, byPub[string(g.Encode(m.PubKey))])
	}
	for _, m := range def.Clients {
		gk.clients = append(gk.clients, byPub[string(g.Encode(m.PubKey))])
	}
	return gk, nil
}

// standUp starts every member — servers first, listening before any
// client — and waits until every client's schedule is established. It
// returns the group and the setup time.
func standUp(w Workload, gk *groupKeys, dir string) (*liveGroup, time.Duration, error) {
	lg := &liveGroup{w: w, dir: dir}
	quiet := slog.New(slog.DiscardHandler)
	onErr := func(error) { lg.softErr.Add(1) }
	hostOpts := []dissent.HostOption{dissent.WithHostLogger(quiet), dissent.WithHostErrorHandler(onErr)}

	start := time.Now()
	if w.Sim {
		lg.sim = dissent.NewSimNet()
		isServer := make(map[dissent.NodeID]bool, numServers)
		for _, s := range gk.def.Servers {
			isServer[s.ID] = true
		}
		lg.sim.SetLatency(func(from, to dissent.NodeID) time.Duration {
			if isServer[from] && isServer[to] {
				return w.ServerServer
			}
			return w.ClientServer
		})
		hostOpts = append(hostOpts, dissent.WithHostSimNet(lg.sim))
	} else {
		hostOpts = append(hostOpts, dissent.WithHostListenAddr("127.0.0.1:0"))
	}

	newMember := func(keys dissent.Keys, id dissent.NodeID) (*member, error) {
		h, err := dissent.NewHost(hostOpts...)
		if err != nil {
			return nil, err
		}
		return &member{keys: keys, id: id, host: h}, nil
	}
	fail := func(err error) (*liveGroup, time.Duration, error) {
		lg.tearDown()
		return nil, 0, err
	}
	for i, k := range gk.servers {
		m, err := newMember(k, gk.def.Servers[i].ID)
		if err != nil {
			return fail(err)
		}
		lg.servers = append(lg.servers, m)
	}
	for i, k := range gk.clients {
		m, err := newMember(k, gk.def.Clients[i].ID)
		if err != nil {
			return fail(err)
		}
		lg.clients = append(lg.clients, m)
	}
	roster := dissent.Roster{}
	if !w.Sim {
		for _, m := range append(append([]*member(nil), lg.servers...), lg.clients...) {
			roster[m.id] = m.host.Addr()
		}
	}

	open := func(m *member, extra ...dissent.Option) error {
		opts := []dissent.Option{dissent.WithPipelineDepth(w.PipelineDepth)}
		if !w.Sim {
			opts = append(opts, dissent.WithRoster(roster))
		}
		opts = append(opts, extra...)
		s, err := m.host.OpenSession(gk.def, m.keys, opts...)
		if err != nil {
			return err
		}
		m.sess = s
		return nil
	}
	for i, m := range lg.servers {
		var extra []dissent.Option
		if w.Store {
			st, err := dissent.OpenStateStore(filepath.Join(dir, fmt.Sprintf("server-%d.db", i)))
			if err != nil {
				return fail(err)
			}
			m.store = st
			extra = append(extra, dissent.WithStateStore(st))
		}
		if err := open(m, extra...); err != nil {
			return fail(err)
		}
	}
	for _, m := range lg.clients {
		if err := open(m); err != nil {
			return fail(err)
		}
	}
	deadline := start.Add(w.policy().HardTimeout)
	for _, m := range lg.clients {
		for !m.sess.ScheduleEstablished() {
			if time.Now().After(deadline) {
				return fail(fmt.Errorf("setup did not complete within %s", w.policy().HardTimeout))
			}
			time.Sleep(time.Millisecond)
		}
	}
	return lg, time.Since(start), nil
}

// tearDown closes every host (and with it every session), the SimNet
// and the stores, waits for the drain goroutines, and removes the
// store files.
func (lg *liveGroup) tearDown() {
	for _, m := range append(append([]*member(nil), lg.clients...), lg.servers...) {
		if m.host != nil {
			m.host.Close()
		}
	}
	if lg.sim != nil {
		lg.sim.Close()
	}
	lg.drains.Wait()
	for _, m := range lg.servers {
		if m.store != nil {
			m.store.Close()
		}
	}
	os.RemoveAll(lg.dir)
}

// sessions lists every member session, servers first.
func (lg *liveGroup) sessions() []*dissent.Session {
	out := make([]*dissent.Session, 0, len(lg.servers)+len(lg.clients))
	for _, m := range lg.servers {
		out = append(out, m.sess)
	}
	for _, m := range lg.clients {
		out = append(out, m.sess)
	}
	return out
}

// fabricSnap is one reading of the counters the sessions expose.
type fabricSnap struct {
	proc        procSnap
	rounds      uint64 // server 0
	failed      uint64 // server 0
	hits, miss  uint64 // server 0 pad prefetch
	msgsOut     uint64 // Σ over sessions
	bytesOut    uint64
	storeBytes  int64 // server 0's store file
	dialFail    uint64
	framesDropd uint64
}

func (lg *liveGroup) snap() fabricSnap {
	fs := fabricSnap{proc: takeProcSnap()}
	s0 := lg.servers[0].sess.Metrics()
	fs.rounds, fs.failed = s0.RoundsCompleted, s0.RoundsFailed
	fs.hits, fs.miss = s0.PadPrefetchHits, s0.PadPrefetchMisses
	for _, s := range lg.sessions() {
		m := s.Metrics()
		fs.msgsOut += m.MessagesOut
		fs.bytesOut += m.BytesOut
		// Every member has its own host and mesh, so the sum counts each
		// connection once.
		if tm := s.TransportMetrics(); tm != nil {
			fs.dialFail += tm.DialFailures
			fs.framesDropd += tm.FramesDropped
		}
	}
	if st := lg.servers[0].store; st != nil {
		if info, err := os.Stat(st.Path()); err == nil {
			fs.storeBytes = info.Size()
		}
	}
	return fs
}

// generator is the single goroutine that calls Session.Send.
type generator struct {
	w      Workload
	seed   uint64
	lg     *liveGroup
	oracle *oracle
	start  time.Time
	stop   time.Time // no new records are due or sent after this

	maxLate time.Duration
	nextID  uint64
	perSeq  []int // next per-sender sequence number
}

func (g *generator) send(sender int, due time.Duration, closedLoop bool) {
	r := &record{id: g.nextID, sender: sender, seq: g.perSeq[sender], length: g.w.RecordBytes}
	g.nextID++
	g.perSeq[sender]++
	var frame []byte
	frame, r.crc = buildRecord(g.seed, r.id, r.length)
	if closedLoop {
		r.sent = time.Now()
	} else {
		r.sent = g.start.Add(due) // timed from when it was due, not when it went out
		time.Sleep(time.Until(r.sent))
		if late := time.Since(r.sent); late > g.maxLate {
			g.maxLate = late
		}
	}
	g.oracle.add(r)
	if err := g.lg.clients[sender].sess.Send(context.Background(), frame); err != nil {
		g.oracle.mu.Lock()
		r.sendFailed = true
		g.oracle.fail("record %d: Send: %v", r.id, err)
		g.oracle.mu.Unlock()
	}
}

// runOpen offers records on the seeded arrival schedule, each from a
// seed-chosen sender, until stop.
func (g *generator) runOpen() {
	sched := newArrivals(g.seed, g.w.Rate)
	pick := newRand(g.seed, "senders")
	for {
		due := sched.next()
		if !g.start.Add(due).Before(g.stop) {
			return
		}
		g.send(pick.IntN(g.w.Senders), due, false)
	}
}

// runClosed keeps exactly one record outstanding per sender: the next
// Send happens when the observer client holds the previous one.
func (g *generator) runClosed(done <-chan int) {
	for s := 0; s < g.w.Senders; s++ {
		g.send(s, 0, true)
	}
	timer := time.NewTimer(time.Until(g.stop))
	defer timer.Stop()
	for {
		select {
		case s := <-done:
			if time.Now().After(g.stop) {
				return
			}
			g.send(s, 0, true)
		case <-timer.C:
			return
		}
	}
}
