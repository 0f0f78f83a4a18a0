// Command dissentd runs one or more Dissent server memberships — one
// per group — in a single process over one shared TCP listener, built
// on the public dissent SDK's Host.
//
// Usage:
//
//	dissentd -group group.json -key server-0.key -roster roster.json -listen :7000 \
//	         [-store state.kv] [-beacon :7080] [-metrics :7090]
//
// Flags -group, -key, -roster, -store, and -beacon are repeatable and
// positional: each -group starts a new session block, and the
// -key/-roster/-store/-beacon flags that follow apply to it. One
// invocation therefore shards many groups behind one listener:
//
//	dissentd -listen :7000 \
//	    -group g1/group.json -key g1/server-0.key -roster g1/roster.json \
//	    -group g2/group.json -key g2/server-0.key -roster g2/roster.json
//
// Every roster maps that group's member node IDs (hex) to dialable
// addresses; this daemon's entry must point at the shared -listen
// address:
//
//	{"0a1b2c3d4e5f6071": "server0.example.org:7000", ...}
//
// All servers and clients of a group must share the same group.json
// and roster. The daemon logs round completions, participation counts,
// blame verdicts, and protocol violations per group, and shuts down
// cleanly on SIGINT/SIGTERM (sessions drain first, then every store is
// flushed and closed).
//
// With -store the session persists its durable state — the certified
// roster-update log, the restart snapshot, and the beacon chain — to a
// single crash-safe embedded store file. A daemon killed mid-epoch and
// restarted against the same -store file resumes its live session from
// the snapshot: it re-announces itself to the group, reopens in-flight
// rounds, and catches up on rounds certified without it, with no manual
// rejoin. A store without a snapshot (an abandoned run's) is cleared at
// startup. A store holding another group's snapshot, or one written in
// an older record layout, refuses the session open with an error that
// names what it refused; delete that file to start afresh.
//
// With -beacon a session additionally serves its randomness-beacon
// chain over HTTP (GET /beacon/latest, /beacon/{round},
// /beacon/from/{round}, /beacon/range/{from}, /beacon/info, and
// /beacon/schedule — the schedule certificate that anchors the chain's
// session-bound genesis) so clients and external verifiers can fetch
// and verify per-round randomness; -store is what makes that chain
// durable.
//
// With -metrics the daemon serves the host's operator/debug endpoint:
// Prometheus text exposition at /metrics (per-session round, traffic,
// and churn counters plus the dissent_round_phase_seconds latency
// histograms), the same snapshot as JSON at
// /metrics.json, recent per-round span records at /debug/rounds (the
// input of `dissent trace`), the standard runtime profiles under
// /debug/pprof/, and every session's certified membership roster at
// /roster: the roster version, hash-chain digest, member list with
// expulsion state, and the latest certified RosterUpdate (hex),
// verifiable against the group's server keys.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"dissent"
	"dissent/dissentcfg"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "dissentd:", err)
		os.Exit(1)
	}
}

// sessionSpec is one -group block's file set: a group definition plus
// the key, roster, beacon, and store flags that followed it.
type sessionSpec struct {
	group, key, roster string
	beacon, store      string
	groupSet           bool
}

// parseSpecs wires the repeatable session-block flags onto fs. Each
// -group begins a new block; the other flags apply to the most recent
// one (or to the implicit default block when they come first).
func parseSpecs(fs *flag.FlagSet) *[]*sessionSpec {
	specs := &[]*sessionSpec{}
	cur := func() *sessionSpec {
		if len(*specs) == 0 {
			s := &sessionSpec{group: "group.json", roster: "roster.json"}
			*specs = append(*specs, s)
			return s
		}
		return (*specs)[len(*specs)-1]
	}
	fs.Func("group", "group definition file; repeatable — each use starts a new session block (default group.json)", func(v string) error {
		s := cur()
		if s.groupSet {
			s = &sessionSpec{group: v, roster: "roster.json", groupSet: true}
			*specs = append(*specs, s)
			return nil
		}
		s.group, s.groupSet = v, true
		return nil
	})
	fs.Func("key", "server key file (from keygen) for the current -group block", func(v string) error {
		cur().key = v
		return nil
	})
	fs.Func("roster", "node address roster for the current -group block (default roster.json)", func(v string) error {
		cur().roster = v
		return nil
	})
	fs.Func("beacon", "beacon HTTP listen address for the current -group block (empty = disabled)", func(v string) error {
		cur().beacon = v
		return nil
	})
	fs.Func("store", "durable state store file for the current -group block; a server restarted against it resumes its session (empty = in-memory)", func(v string) error {
		cur().store = v
		return nil
	})
	return specs
}

// run parses flags and serves until SIGINT/SIGTERM cancels the host;
// it returns an error (instead of exiting) for anything that fails
// before the serving loop, so tests can exercise argument handling.
func run(args []string) error {
	fs := flag.NewFlagSet("dissentd", flag.ContinueOnError)
	listen := fs.String("listen", ":7000", "shared TCP listen address for every session")
	metricsAddr := fs.String("metrics", "", "debug HTTP listen address serving Prometheus /metrics, /metrics.json, /debug/rounds, /debug/pprof/, /roster (empty = disabled)")
	logLevel := fs.String("log-level", "info", "log level: debug (per-round engine milestones), info, warn, error")
	specs := parseSpecs(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(*specs) == 0 {
		*specs = append(*specs, &sessionSpec{group: "group.json", roster: "roster.json"})
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("-log-level: %w", err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	host, err := dissent.NewHost(
		dissent.WithHostListenAddr(*listen),
		dissent.WithHostLogger(logger),
	)
	if err != nil {
		return err
	}
	// Teardown order matters: the host closes every session (which
	// stops appending to the chains, roster logs, and snapshots) before
	// the store closes flush the files.
	var stores []*dissent.StateStore
	defer func() {
		host.Close()
		for _, st := range stores {
			st.Close()
		}
	}()

	for _, spec := range *specs {
		if err := openSpec(host, logger, spec, &stores); err != nil {
			return fmt.Errorf("%s: %w", spec.group, err)
		}
	}

	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer ln.Close()
		go http.Serve(ln, host.DebugHandler())
		logger.Info("debug HTTP up", "addr", ln.Addr().String(),
			"endpoints", "/metrics /metrics.json /debug/rounds /debug/pprof/ /roster")
	}

	logger.Info("host listening", "addr", host.Addr(), "sessions", len(host.Sessions()))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	logger.Info("shutting down")
	return nil
}

// openSpec loads one session block's files and opens its membership on
// the host. A state store it opens is appended to stores; the caller
// closes them after the host has shut down.
func openSpec(host *dissent.Host, logger *slog.Logger, spec *sessionSpec, stores *[]*dissent.StateStore) error {
	grp, err := dissentcfg.LoadGroup(spec.group)
	if err != nil {
		return err
	}
	roster, err := dissentcfg.LoadRoster(spec.roster)
	if err != nil {
		return err
	}
	keys, err := dissentcfg.LoadKeys(spec.key, grp)
	if err != nil {
		return err
	}
	if keys.MsgShuffle == nil {
		return errors.New("key file lacks a message-shuffle key (is this a server key?)")
	}

	opts := []dissent.Option{dissent.WithRoster(roster)}
	if spec.store != "" {
		kv, err := dissent.OpenStateStore(spec.store)
		if err != nil {
			return err
		}
		*stores = append(*stores, kv)
		opts = append(opts, dissent.WithStateStore(kv))
		logger.Info("state store open", "path", kv.Path(), "records", kv.Len())
	}
	if spec.beacon != "" {
		if grp.Policy.BeaconEpochRounds == 0 {
			return errors.New("-beacon set but the group policy disables the beacon")
		}
		opts = append(opts, dissent.WithBeaconHTTP(spec.beacon))
		logger.Info("beacon HTTP up", "addr", spec.beacon,
			"endpoints", "/beacon/latest /beacon/{round} /beacon/from/{round} /beacon/range/{from} /beacon/info /beacon/schedule")
	}

	sess, err := host.OpenSession(grp, keys, opts...)
	if err != nil {
		return err
	}
	if sess.Role() != dissent.RoleServer {
		sess.Close()
		return errors.New("key file belongs to a client of this group, not a server")
	}

	gid := grp.GroupID()
	glog := logger.With("group", fmt.Sprintf("%x", gid[:8]))
	glog.Info("session open", "server", sess.ID().String(), "index", sess.Index())
	events := sess.Subscribe() // subscribe before the goroutine runs: the session is already live
	go func() {
		for e := range events {
			glog.Info("event", "round", e.Round, "kind", e.Kind.String(), "detail", e.Detail)
		}
	}()
	return nil
}
