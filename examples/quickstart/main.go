// Quickstart: a complete Dissent group — 3 anytrust servers and 8
// clients — on the public SDK, running the full production path:
// pseudonym-key submission, the verifiable scheduling shuffle,
// certified DC-net rounds, and anonymous delivery. Every member is a
// session on a Host of its own over the in-process SimNet; give each
// Host a listen address (and each session a roster) instead and the
// same code is a deployment.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"dissent"
)

func main() {
	// 1. Keys and the group definition, whose hash is the group ID.
	policy := dissent.DefaultPolicy()
	policy.MessageGroup = "modp-512-test" // small accusation group for the demo
	policy.WindowMin = 10 * time.Millisecond
	policy.DefaultOpenLen = 128
	var serverKeys, clientKeys []dissent.Keys
	for i := 0; i < 3; i++ {
		k, err := dissent.GenerateServerKeys(policy)
		must(err)
		serverKeys = append(serverKeys, k)
	}
	for i := 0; i < 8; i++ {
		k, err := dissent.GenerateClientKeys()
		must(err)
		clientKeys = append(clientKeys, k)
	}
	grp, err := dissent.NewGroup("quickstart", serverKeys, clientKeys, policy)
	must(err)
	gid := grp.GroupID()
	fmt.Printf("group %x: %d servers, %d clients\n", gid[:8], len(grp.Servers), len(grp.Clients))

	// 2. One Host per member, all sharing an in-process fabric.
	ctx := context.Background()
	net := dissent.NewSimNet()
	var watch *dissent.Session // one server's view of the anonymous channel
	var clients []*dissent.Session
	for _, k := range serverKeys {
		s := member(net, grp, k)
		if watch == nil {
			watch = s
		}
	}
	for _, k := range clientKeys {
		clients = append(clients, member(net, grp, k))
	}
	rounds := watch.Subscribe(dissent.EventRoundComplete)

	// 3. Anonymous posts. Deliveries carry only a pseudonym slot —
	// nothing links a slot to a client.
	must(clients[2].Send(ctx, []byte("whistleblower report: the numbers were falsified")))
	must(clients[5].Send(ctx, []byte("meet at the square at noon")))

	for delivered := 0; delivered < 2; {
		m := <-watch.Messages()
		fmt.Printf("  round %d, slot %d (anonymous): %q\n", m.Round, m.Slot, m.Data)
		delivered++
	}
	e := <-rounds
	fmt.Printf("certified DC-net round %d complete — every message signed, every shuffle proof verified\n", e.Round)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// member runs one group member as the only session of a Host of its
// own on the shared in-process fabric; in a deployment each member is
// its own process on a TCP Host (dissent.WithHostListenAddr).
func member(net *dissent.SimNet, grp *dissent.Group, k dissent.Keys) *dissent.Session {
	host, err := dissent.NewHost(dissent.WithHostSimNet(net))
	must(err)
	sess, err := host.OpenSession(grp, k)
	must(err)
	return sess
}
