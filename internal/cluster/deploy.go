package cluster

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"dissent"
)

// serverHandle is the orchestrator's grip on one running server,
// uniform across deployment modes: a debug URL to scrape, an expel
// control, and — in tcp mode — process kill/restart.
type serverHandle struct {
	id       dissent.NodeID
	debugURL string
	expel    func(id dissent.NodeID) error
	kill     func() error // tcp only; nil otherwise
	restart  func() error // tcp only; nil otherwise
}

// deployment is one running topology.
type deployment struct {
	grp     *dissent.Group
	sid     dissent.SessionID
	servers []serverHandle
	// clients holds the in-process client sessions in definition order
	// (both modes run clients in the driver process, each on a Host of
	// its own).
	clients []*dissent.Session
	// sim is the hub for link-fault injection; nil in tcp mode.
	sim  *dissent.SimNet
	stop func()
}

// quietLogger drops member logs: a scenario run deliberately breaks
// links and kills processes, and the resulting warn-spam would bury
// the driver's own narration.
func quietLogger() *slog.Logger {
	if path := os.Getenv("DISSENT_CLUSTER_DEBUG_LOG"); path != "" {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err == nil {
			return slog.New(slog.NewTextHandler(f, &slog.HandlerOptions{Level: slog.LevelInfo}))
		}
	}
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// adminHandler wraps a host's debug mux with the orchestration control
// surface: /admin/expel?session=<hex64>&id=<hex16> queues a member's
// removal, so the driver steers churn in worker processes over the
// same HTTP channel it scrapes.
func adminHandler(h *dissent.Host) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/admin/expel", func(w http.ResponseWriter, r *http.Request) {
		var sid dissent.SessionID
		if err := sid.UnmarshalText([]byte(r.URL.Query().Get("session"))); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		id, err := parseNodeID(r.URL.Query().Get("id"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := h.Expel(sid, id); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/", h.DebugHandler())
	return mux
}

// parseNodeID parses the 16-hex-char NodeID rendering.
func parseNodeID(s string) (dissent.NodeID, error) {
	var id dissent.NodeID
	if len(s) != len(id)*2 {
		return id, fmt.Errorf("cluster: node ID must be %d hex characters", len(id)*2)
	}
	for i := 0; i < len(id); i++ {
		var b byte
		if _, err := fmt.Sscanf(s[i*2:i*2+2], "%02x", &b); err != nil {
			return id, err
		}
		id[i] = b
	}
	return id, nil
}

// serveDebug serves a handler on a fresh loopback listener and returns
// its base URL plus a closer.
func serveDebug(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), func() { srv.Close() }, nil
}

// deploySim stands the topology up in-process: one Host per server
// over a shared SimNet hub (each host still serves its debug mux on a
// real loopback listener, so scraping is uniform with tcp mode), and
// one Host per client key.
func deploySim(m *material) (*deployment, error) {
	sim := dissent.NewSimNet()
	sid := dissent.GroupSessionID(m.grp)
	dep := &deployment{grp: m.grp, sid: sid, sim: sim}
	var closers []func()
	dep.stop = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
		sim.Close()
	}
	fail := func(err error) (*deployment, error) {
		dep.stop()
		return nil, err
	}

	for i, keys := range m.serverKeys {
		host, err := dissent.NewHost(
			dissent.WithHostSimNet(sim),
			dissent.WithHostLogger(quietLogger()),
			dissent.WithHostErrorHandler(func(error) {}),
		)
		if err != nil {
			return fail(err)
		}
		closers = append(closers, func() { host.Close() })
		sessOpts := []dissent.Option{}
		if m.pipelineDepth > 1 {
			sessOpts = append(sessOpts, dissent.WithPipelineDepth(m.pipelineDepth))
		}
		if m.byz != nil {
			if g, ok := m.byz.serverGates[i]; ok {
				sessOpts = append(sessOpts, dissent.WithInterdict(g.interdict()))
			}
		}
		if _, err := host.OpenSession(m.grp, keys, sessOpts...); err != nil {
			return fail(fmt.Errorf("cluster: server %d: %w", i, err))
		}
		url, closeDebug, err := serveDebug(adminHandler(host))
		if err != nil {
			return fail(err)
		}
		closers = append(closers, closeDebug)
		dep.servers = append(dep.servers, serverHandle{
			id:       m.grp.Servers[i].ID,
			debugURL: url,
			expel:    func(id dissent.NodeID) error { return host.Expel(sid, id) },
		})
	}

	clients, err := openClients(m, func(int) dissent.HostOption { return dissent.WithHostSimNet(sim) },
		func(stop func()) { closers = append(closers, stop) })
	if err != nil {
		return fail(err)
	}
	dep.clients = clients
	return dep, nil
}

// openClients runs every client key as the one session of a Host of its
// own, in definition order: hostOpt places client i's Host on the
// deployment's fabric, extra adds session options, and track receives
// each Host's closer for the deployment's stop.
func openClients(m *material, hostOpt func(i int) dissent.HostOption, track func(func()), extra ...dissent.Option) ([]*dissent.Session, error) {
	var clients []*dissent.Session
	for i, keys := range m.clientKeys {
		host, err := dissent.NewHost(hostOpt(i),
			dissent.WithHostLogger(quietLogger()),
			dissent.WithHostErrorHandler(func(error) {}),
		)
		if err != nil {
			return nil, fmt.Errorf("cluster: client %d: %w", i, err)
		}
		track(func() { host.Close() })
		opts := append([]dissent.Option{dissent.WithMessageBuffer(4096)}, extra...)
		if m.pipelineDepth > 1 {
			opts = append(opts, dissent.WithPipelineDepth(m.pipelineDepth))
		}
		if m.byz != nil {
			if g, ok := m.byz.clientGates[i]; ok {
				opts = append(opts, dissent.WithInterdict(g.interdict()))
			}
		}
		sess, err := host.OpenSession(m.grp, keys, opts...)
		if err != nil {
			return nil, fmt.Errorf("cluster: client %d: %w", i, err)
		}
		clients = append(clients, sess)
	}
	return clients, nil
}

// waitReady polls until every client's slot schedule is established or
// the warmup deadline passes.
func (d *deployment) waitReady(ctx context.Context, warmup time.Duration) error {
	deadline := time.Now().Add(warmup)
	for {
		ready := 0
		for _, c := range d.clients {
			if c.ScheduleEstablished() {
				ready++
			}
		}
		if ready == len(d.clients) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: %d/%d clients ready after %v warmup", ready, len(d.clients), warmup)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// armFaults schedules the scenario's fault windows relative to now.
// Link faults pre-program the SimNet hub; kill faults run on driver
// timers. The returned stop func cancels pending kill timers (hub
// windows die with the hub).
func (d *deployment) armFaults(sc Scenario) func() {
	var timers []*time.Timer
	for _, f := range sc.Faults {
		f := f
		switch f.Kind {
		case FaultPartitionServer:
			spec := dissent.FaultSpec{DropRate: 1.0}
			for _, other := range d.servers {
				if other.id != d.servers[f.Server].id {
					d.sim.ScheduleLinkFault(d.servers[f.Server].id, other.id, spec, f.At, f.Duration)
				}
			}
		case FaultDegradeServer:
			spec := dissent.FaultSpec{Latency: f.Latency, Jitter: f.Jitter, DropRate: f.DropRate}
			for _, other := range d.servers {
				if other.id != d.servers[f.Server].id {
					d.sim.ScheduleLinkFault(d.servers[f.Server].id, other.id, spec, f.At, f.Duration)
				}
			}
			for _, c := range d.clients {
				d.sim.ScheduleLinkFault(d.servers[f.Server].id, c.ID(), spec, f.At, f.Duration)
			}
		case FaultKillServer:
			h := d.servers[f.Server]
			if h.kill == nil {
				continue
			}
			timers = append(timers, time.AfterFunc(f.At, func() { h.kill() }))
			if f.Duration > 0 && h.restart != nil {
				timers = append(timers, time.AfterFunc(f.At+f.Duration, func() { h.restart() }))
			}
		}
	}
	return func() {
		for _, t := range timers {
			t.Stop()
		}
	}
}
