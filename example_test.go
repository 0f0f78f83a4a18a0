package dissent_test

// Godoc examples for the root SDK surface. They have no "Output:"
// comment — `go test -run Example` compiles them (CI keeps them
// building) without running live groups — and pkg.go.dev renders them
// as usage on the corresponding symbols.

import (
	"context"
	"fmt"
	"log"
	"os/signal"
	"syscall"

	"dissent"
	"dissent/dissentcfg"
)

// ExampleNewServer runs one anytrust-server membership over TCP from
// the files keygen produces: the standard single-group deployment.
func ExampleNewServer() {
	grp, err := dissentcfg.LoadGroup("group.json")
	if err != nil {
		log.Fatal(err)
	}
	keys, err := dissentcfg.LoadKeys("server-0.key", grp)
	if err != nil {
		log.Fatal(err)
	}
	roster, err := dissentcfg.LoadRoster("roster.json")
	if err != nil {
		log.Fatal(err)
	}

	node, err := dissent.NewServer(grp, keys,
		dissent.WithListenAddr(":7000"),
		dissent.WithRoster(roster))
	if err != nil {
		log.Fatal(err)
	}

	// Run owns the transport, timers, and graceful shutdown; cancel
	// the context (here: SIGINT/SIGTERM) to stop serving.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := node.Run(ctx); err != nil {
		log.Fatal(err)
	}
}

// ExampleHost_OpenSession shards two independent groups behind one
// process and one TCP listener: each OpenSession is an isolated
// Session (own engine, schedule, beacon chain, channels) routed over
// the shared fabric by its session tag.
func ExampleHost_OpenSession() {
	host, err := dissent.NewHost(dissent.WithHostListenAddr(":7000"))
	if err != nil {
		log.Fatal(err)
	}
	defer host.Close()

	for _, dir := range []string{"alpha", "beta"} {
		grp, err := dissentcfg.LoadGroup(dir + "/group.json")
		if err != nil {
			log.Fatal(err)
		}
		keys, err := dissentcfg.LoadKeys(dir+"/server-0.key", grp)
		if err != nil {
			log.Fatal(err)
		}
		roster, err := dissentcfg.LoadRoster(dir + "/roster.json")
		if err != nil {
			log.Fatal(err)
		}
		// The member's role is located by its identity key; over TCP a
		// per-group roster is required, with this member's entry
		// pointing at the host's shared listen address.
		sess, err := host.OpenSession(grp, keys, dissent.WithRoster(roster))
		if err != nil {
			log.Fatal(err)
		}
		go func() {
			for m := range sess.Messages() {
				fmt.Printf("%s round %d slot %d: %q\n", sess.SessionID(), m.Round, m.Slot, m.Data)
			}
		}()
	}

	// Aggregated and per-session counters in one snapshot.
	fmt.Printf("%d sessions on %s\n", host.Metrics().Sessions, host.Addr())

	// Sessions tear down independently; Close stops the whole host.
	for _, sess := range host.Sessions() {
		defer host.CloseSession(sess.SessionID())
	}
}

// ExampleNode_Subscribe watches protocol events — here round
// certifications and blame verdicts — without touching the message
// stream.
func ExampleNode_Subscribe() {
	var node *dissent.Node // built with NewServer or NewClient

	events := node.Subscribe(dissent.EventRoundComplete, dissent.EventBlameVerdict)
	go func() {
		for e := range events { // channel closes when the node shuts down
			switch e.Kind {
			case dissent.EventRoundComplete:
				fmt.Printf("round %d certified\n", e.Round)
			case dissent.EventBlameVerdict:
				fmt.Printf("round %d: disruptor %s expelled\n", e.Round, e.Culprit)
			}
		}
	}()
}
