// Multitenant: one process sharding several Dissent groups behind a
// single Host. The host runs one anytrust-server membership per group
// over one shared fabric (here the in-process SimNet; with
// dissent.WithHostListenAddr the same code serves both groups from one
// TCP listener, exactly like `dissentd -group a.json ... -group
// b.json ...`). Each group is an isolated session: its own engine,
// schedule, beacon chain, and channels — messages never cross, and
// sessions tear down independently.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"dissent"
)

const (
	tenants          = 2
	serversPerGroup  = 2
	clientsPerGroup  = 3
	payloadPerTenant = "tenant %d: confidential report"
)

func main() {
	policy := dissent.DefaultPolicy()
	policy.MessageGroup = "modp-512-test" // small accusation group for the demo
	policy.WindowMin = 10 * time.Millisecond
	policy.DefaultOpenLen = 128

	ctx := context.Background()

	// One fabric, one host, many groups.
	net := dissent.NewSimNet()
	defer net.Close()
	host, err := dissent.NewHost(dissent.WithHostSimNet(net))
	must(err)
	defer host.Close()

	sessions := make([]*dissent.Session, tenants)
	clients := make([][]*dissent.Session, tenants)
	for tenant := 0; tenant < tenants; tenant++ {
		// Each tenant is a complete independent group.
		var serverKeys, clientKeys []dissent.Keys
		for i := 0; i < serversPerGroup; i++ {
			k, err := dissent.GenerateServerKeys(policy)
			must(err)
			serverKeys = append(serverKeys, k)
		}
		for i := 0; i < clientsPerGroup; i++ {
			k, err := dissent.GenerateClientKeys()
			must(err)
			clientKeys = append(clientKeys, k)
		}
		grp, err := dissent.NewGroup(fmt.Sprintf("tenant-%d", tenant), serverKeys, clientKeys, policy)
		must(err)

		// The host carries server 0 of every group; the role is located
		// by key, the session ID is the group ID.
		sess, err := host.OpenSession(grp, serverKeys[0])
		must(err)
		sessions[tenant] = sess

		// The remaining members run on Hosts of their own on the same
		// fabric — in a deployment these are other machines.
		for _, k := range serverKeys[1:] {
			member(net, grp, k)
		}
		for _, k := range clientKeys {
			clients[tenant] = append(clients[tenant], member(net, grp, k))
		}
		gid := grp.GroupID()
		fmt.Printf("session %x open: %d servers, %d clients\n",
			gid[:8], serversPerGroup, clientsPerGroup)
	}

	// Drive both groups concurrently: one anonymous post per tenant.
	for tenant, sess := range sessions {
		payload := fmt.Sprintf(payloadPerTenant, tenant)
		must(clients[tenant][1].Send(ctx, []byte(payload)))
		for {
			m := <-sess.Messages()
			if string(m.Data) == payload {
				fmt.Printf("tenant %d: round %d, slot %d (anonymous): %q\n",
					tenant, m.Round, m.Slot, m.Data)
				break
			}
		}
	}

	// Per-host and per-session metrics aggregate in one snapshot
	// (host.DebugHandler() serves it as Prometheus text and JSON).
	hm := host.Metrics()
	fmt.Printf("host: %d sessions, %d rounds certified, %d KB in / %d KB out\n",
		hm.Sessions, hm.RoundsCompleted, hm.BytesIn/1024, hm.BytesOut/1024)

	// Sessions close independently: tenant 0 goes away, tenant 1 keeps
	// certifying rounds.
	rounds := sessions[1].Subscribe(dissent.EventRoundComplete)
	must(host.CloseSession(sessions[0].SessionID()))
	<-sessions[0].Done()
	e := <-rounds
	fmt.Printf("tenant 0 torn down; tenant 1 still certifying (round %d)\n", e.Round)
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
