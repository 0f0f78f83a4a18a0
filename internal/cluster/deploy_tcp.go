package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"dissent"
	"dissent/dissentcfg"
)

// reservePorts grabs n distinct loopback ports by binding and
// releasing listeners. The usual TOCTOU caveat applies; scenario runs
// are short-lived and local, and a clash surfaces as a deploy error.
func reservePorts(n int) ([]int, error) {
	ports := make([]int, 0, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// workerProc supervises one spawned server process.
type workerProc struct {
	exe     string
	cfgPath string
	logPath string

	mu    sync.Mutex
	cmd   *exec.Cmd
	stdin *os.File // held open; closing it tells the worker to exit
}

func (w *workerProc) start() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	r, wr, err := os.Pipe()
	if err != nil {
		return err
	}
	logf, err := os.OpenFile(w.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		r.Close()
		wr.Close()
		return err
	}
	cmd := exec.Command(w.exe)
	cmd.Env = append(os.Environ(), WorkerEnv+"="+w.cfgPath)
	cmd.Stdin = r
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		r.Close()
		wr.Close()
		logf.Close()
		return err
	}
	// The child holds its own copy of the read end; the log file is
	// likewise duplicated into the child.
	r.Close()
	logf.Close()
	go cmd.Wait()
	w.cmd, w.stdin = cmd, wr
	return nil
}

// kill terminates the process immediately (the fault path — no
// graceful shutdown).
func (w *workerProc) kill() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cmd == nil || w.cmd.Process == nil {
		return nil
	}
	err := w.cmd.Process.Kill()
	if w.stdin != nil {
		w.stdin.Close()
		w.stdin = nil
	}
	w.cmd = nil
	return err
}

// release asks a live worker to exit cleanly by closing its stdin.
func (w *workerProc) release() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stdin != nil {
		w.stdin.Close()
		w.stdin = nil
	}
	if w.cmd != nil && w.cmd.Process != nil {
		// Belt and braces: don't leave orphans if the worker wedged.
		p := w.cmd.Process
		time.AfterFunc(3*time.Second, func() { p.Kill() })
	}
	w.cmd = nil
}

// deployTCP stands the topology up multi-process: every server is a
// spawned OS process (the orchestrator re-executes workerExe with
// WorkerEnv pointing at a per-server config) listening on real
// loopback TCP; clients run in the driver process, each on a Host with
// its own listener, all wired through a rewritten roster.
func deployTCP(ctx context.Context, m *material, workerExe string) (*deployment, error) {
	if workerExe == "" {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		workerExe = exe
	}
	nS, nC := len(m.grp.Servers), len(m.grp.Clients)
	ports, err := reservePorts(2*nS + nC)
	if err != nil {
		return nil, err
	}
	serverPorts, debugPorts, clientPorts := ports[:nS], ports[nS:2*nS], ports[2*nS:]

	// Rewrite the roster with the reserved ports and persist it — the
	// workers load it from disk.
	roster := dissent.Roster{}
	for i, mem := range m.grp.Servers {
		roster[mem.ID] = fmt.Sprintf("127.0.0.1:%d", serverPorts[i])
	}
	for i, mem := range m.grp.Clients {
		roster[mem.ID] = fmt.Sprintf("127.0.0.1:%d", clientPorts[i])
	}
	rosterPath := filepath.Join(m.dir, "roster.json")
	if err := dissentcfg.WriteRoster(rosterPath, roster); err != nil {
		return nil, err
	}

	sid := dissent.GroupSessionID(m.grp)
	dep := &deployment{grp: m.grp, sid: sid}
	var closers []func()
	dep.stop = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	fail := func(err error) (*deployment, error) {
		dep.stop()
		return nil, err
	}

	for i := range m.grp.Servers {
		cfg := WorkerConfig{
			GroupFile:     filepath.Join(m.dir, "group.json"),
			KeyFile:       filepath.Join(m.dir, fmt.Sprintf("server-%d.key", i)),
			RosterFile:    rosterPath,
			Listen:        fmt.Sprintf("127.0.0.1:%d", serverPorts[i]),
			Debug:         fmt.Sprintf("127.0.0.1:%d", debugPorts[i]),
			PipelineDepth: m.pipelineDepth,
		}
		if m.durableStores {
			cfg.StoreFile = filepath.Join(m.dir, fmt.Sprintf("server-%d.kv", i))
		}
		data, err := json.MarshalIndent(cfg, "", "  ")
		if err != nil {
			return fail(err)
		}
		cfgPath := filepath.Join(m.dir, fmt.Sprintf("worker-%d.json", i))
		if err := os.WriteFile(cfgPath, data, 0o644); err != nil {
			return fail(err)
		}
		proc := &workerProc{
			exe:     workerExe,
			cfgPath: cfgPath,
			logPath: filepath.Join(m.dir, fmt.Sprintf("worker-%d.log", i)),
		}
		if err := proc.start(); err != nil {
			return fail(fmt.Errorf("cluster: spawn server %d: %w", i, err))
		}
		closers = append(closers, proc.release)
		url := "http://" + cfg.Debug
		dep.servers = append(dep.servers, serverHandle{
			id:       m.grp.Servers[i].ID,
			debugURL: url,
			expel: func(id dissent.NodeID) error {
				return httpExpel(url, sid, id)
			},
			kill:    proc.kill,
			restart: proc.start,
		})
	}

	// Workers are up when their debug endpoints answer.
	for i, h := range dep.servers {
		if err := waitHTTP(ctx, h.debugURL+"/metrics.json", 30*time.Second); err != nil {
			return fail(fmt.Errorf("cluster: server %d never served its debug endpoint: %w", i, err))
		}
	}

	clients, err := openClients(m,
		func(i int) dissent.HostOption {
			return dissent.WithHostListenAddr(fmt.Sprintf("127.0.0.1:%d", clientPorts[i]))
		},
		func(stop func()) { closers = append(closers, stop) },
		dissent.WithRoster(roster))
	if err != nil {
		return fail(err)
	}
	dep.clients = clients
	return dep, nil
}

// httpExpel drives a worker's /admin/expel endpoint.
func httpExpel(baseURL string, sid dissent.SessionID, id dissent.NodeID) error {
	url := fmt.Sprintf("%s/admin/expel?session=%s&id=%s", baseURL, sid, id)
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: expel via %s: HTTP %d", baseURL, resp.StatusCode)
	}
	return nil
}

// waitHTTP polls a URL until it answers 200 or the deadline passes.
func waitHTTP(ctx context.Context, url string, d time.Duration) error {
	deadline := time.Now().Add(d)
	client := &http.Client{Timeout: 2 * time.Second}
	for {
		resp, err := client.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return err
			}
			return fmt.Errorf("cluster: %s not ready after %v", url, d)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}
