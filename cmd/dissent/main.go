// Command dissent runs one Dissent client over TCP, built on the
// public dissent SDK and exposing the §4.1 application interfaces: an
// HTTP API for posting raw anonymous messages and (optionally) a SOCKS
// v5 entry proxy tunneling TCP flows through the group.
//
// Usage:
//
//	dissent -group group.json -key client-0.key -roster roster.json \
//	        -listen :7101 -http :8080 [-socks :1080] [-exit]
//
// With -exit the client additionally acts as the group's (single,
// non-anonymous) SOCKS exit node, forwarding tunneled flows to the
// public network (§4.1).
//
// The beacon subcommand fetches a server's randomness-beacon chain,
// verifies every entry — one round certificate under the servers'
// aggregate key — and every chain link with the group's public keys,
// anchored, when the server publishes its schedule certificate, at the
// session-bound genesis so an archived previous-session chain is
// rejected, and prints the requested entry:
//
//	dissent beacon -url http://server0:7080 -group group.json [-round N]
//
// The trace subcommand fetches a daemon's recent per-round span
// records from its debug endpoint (dissentd -metrics address) and
// prints the slowest rounds with their phase breakdown — submission
// window, pad expansion, combine, certification, blame:
//
//	dissent trace -url http://server0:7090 [-n 10] [-all]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"dissent"
	"dissent/dissentcfg"
	"dissent/internal/socks"
)

func main() {
	log.SetPrefix("dissent: ")
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "beacon":
		err = beaconCmd(os.Args[2:], os.Stdout)
	case len(os.Args) > 1 && os.Args[1] == "trace":
		err = traceCmd(os.Args[2:], os.Stdout)
	default:
		err = run(os.Args[1:])
	}
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// beaconCmd implements "dissent beacon": sync a beacon chain over
// HTTP, verify it end to end, and print one entry.
func beaconCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dissent beacon", flag.ContinueOnError)
	url := fs.String("url", "", "beacon endpoint base URL, e.g. http://server0:7080")
	groupPath := fs.String("group", "group.json", "group definition file (verification keys)")
	round := fs.Int64("round", -1, "print a specific round (default: latest)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *url == "" {
		return errors.New("dissent beacon: -url is required")
	}
	grp, err := dissentcfg.LoadGroup(*groupPath)
	if err != nil {
		return err
	}

	res, err := dissent.SyncBeacon(*url, grp)
	if err != nil {
		return err
	}
	chain := res.Chain
	if chain.Len() == 0 {
		return errors.New("dissent beacon: the server has no beacon entries yet")
	}

	entry := chain.Latest()
	if *round >= 0 {
		if entry = chain.Get(uint64(*round)); entry == nil {
			return fmt.Errorf("dissent beacon: no entry for round %d (failed round?)", *round)
		}
	}
	fmt.Fprintf(w, "chain verified: %d entries (%d fetched), head round %d\n",
		chain.Len(), res.Added, chain.Latest().Round)
	if res.SessionBound {
		fmt.Fprintf(w, "genesis bound to the live session's schedule certificate\n")
	} else {
		fmt.Fprintf(w, "warning: no schedule certificate served; verified against the "+
			"pre-session genesis (an archived chain would verify identically)\n")
	}
	fmt.Fprintf(w, "round      %d\n", entry.Round)
	fmt.Fprintf(w, "count      %d\n", entry.Count)
	fmt.Fprintf(w, "cleartext  %x\n", entry.Cleartext)
	fmt.Fprintf(w, "prev       %x\n", entry.Prev)
	fmt.Fprintf(w, "value      %x\n", entry.Value)
	fmt.Fprintf(w, "signature  %x (the round certificate, valid under the servers' aggregate key)\n", entry.Sig)
	return nil
}

// run parses flags and serves the client until SIGINT/SIGTERM; it
// returns an error (instead of exiting) for anything that fails before
// the serving loop, so tests can exercise argument handling.
func run(args []string) error {
	fs := flag.NewFlagSet("dissent", flag.ContinueOnError)
	groupPath := fs.String("group", "group.json", "group definition file")
	keyPath := fs.String("key", "", "client key file (from keygen)")
	rosterPath := fs.String("roster", "roster.json", "node address roster")
	listen := fs.String("listen", ":7100", "protocol listen address")
	httpAddr := fs.String("http", "", "HTTP API listen address (empty = disabled)")
	socksAddr := fs.String("socks", "", "SOCKS5 proxy listen address (empty = disabled)")
	exitNode := fs.Bool("exit", false, "act as the group's SOCKS exit node")
	post := fs.String("post", "", "post one message once the session runs, then keep running")
	if err := fs.Parse(args); err != nil {
		return err
	}

	grp, err := dissentcfg.LoadGroup(*groupPath)
	if err != nil {
		return err
	}
	roster, err := dissentcfg.LoadRoster(*rosterPath)
	if err != nil {
		return err
	}
	keys, err := dissentcfg.LoadKeys(*keyPath, grp)
	if err != nil {
		return err
	}
	// Only server key files carry a message-shuffle key. Refuse one
	// before anything binds, or this process would briefly run as that
	// server.
	if keys.MsgShuffle != nil {
		return errors.New("key file belongs to a server, not a client (run servers with dissentd)")
	}

	host, err := dissent.NewHost(dissent.WithHostListenAddr(*listen),
		dissent.WithHostErrorHandler(func(err error) { log.Printf("error: %v", err) }))
	if err != nil {
		return err
	}
	defer host.Close()
	node, err := host.OpenSession(grp, keys, dissent.WithRoster(roster))
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	send := func(data []byte) {
		if err := node.Send(ctx, data); err != nil {
			log.Printf("send: %v", err)
		}
	}
	api := socks.NewAPI(send, 0)
	entry := socks.NewEntry(send)
	var exit *socks.Exit
	if *exitNode {
		exit = socks.NewExit(send)
	}

	// Consume the anonymous channel: record every message for the HTTP
	// API and reassemble per-slot SOCKS frames.
	go func() {
		slotBufs := map[int][]byte{}
		for d := range node.Messages() {
			api.Record(d.Round, d.Slot, d.Data)
			buf := append(slotBufs[d.Slot], d.Data...)
			frames, rest, err := socks.DecodeFrames(buf)
			if err != nil {
				slotBufs[d.Slot] = nil
				continue
			}
			slotBufs[d.Slot] = rest
			if len(frames) == 0 {
				continue
			}
			entry.Deliver(frames)
			if exit != nil {
				exit.Deliver(frames)
			}
		}
	}()
	events := node.Subscribe()
	go func() {
		for e := range events {
			log.Printf("round %d: %s %s", e.Round, e.Kind, e.Detail)
		}
	}()
	if *post != "" {
		// Queued now, transmitted in our pseudonym slot once the
		// schedule is established.
		send([]byte(*post))
	}

	if *httpAddr != "" {
		go func() {
			log.Printf("HTTP API on %s (POST /send, GET /messages)", *httpAddr)
			log.Fatal(http.ListenAndServe(*httpAddr, api.Handler()))
		}()
	}
	if *socksAddr != "" {
		ln, err := net.Listen("tcp", *socksAddr)
		if err != nil {
			return err
		}
		log.Printf("SOCKS5 proxy on %s", *socksAddr)
		go entry.Serve(ln)
	}

	gid := grp.GroupID()
	log.Printf("client %s (index %d) in group %x, upstream server %d",
		node.ID(), node.Index(), gid[:8], grp.UpstreamServer(node.Index()))
	select {
	case <-ctx.Done():
	case <-node.Done():
	}
	log.Print("shutting down")
	return nil
}
