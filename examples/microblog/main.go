// Microblog: the §4.2 anonymous microblogging workload on the public
// SDK — a group with wide-area-like latencies (10 ms server–server,
// 50 ms client–server, the shape of the paper's DeterLab topology)
// where a couple of clients post short messages every round. Prints
// each certified round's posts as one server observes them, plus
// wall-clock round times. (For the paper's calibrated
// submission/processing decomposition at thousands of clients, see
// cmd/dissent-bench, which runs the same engines over the
// discrete-event simulator.)
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	"dissent"
)

func main() {
	clients := flag.Int("clients", 16, "number of clients")
	servers := flag.Int("servers", 3, "number of servers")
	rounds := flag.Int("rounds", 5, "certified rounds to run")
	flag.Parse()

	policy := dissent.DefaultPolicy()
	policy.MessageGroup = "modp-512-test"
	policy.WindowMin = 50 * time.Millisecond
	policy.DefaultOpenLen = 192
	policy.BeaconEpochRounds = 0

	var serverKeys, clientKeys []dissent.Keys
	for i := 0; i < *servers; i++ {
		k, err := dissent.GenerateServerKeys(policy)
		must(err)
		serverKeys = append(serverKeys, k)
	}
	for i := 0; i < *clients; i++ {
		k, err := dissent.GenerateClientKeys()
		must(err)
		clientKeys = append(clientKeys, k)
	}
	grp, err := dissent.NewGroup("microblog", serverKeys, clientKeys, policy)
	must(err)

	// The in-process transport with the DeterLab-like latency model.
	isServer := map[dissent.NodeID]bool{}
	for _, m := range grp.Servers {
		isServer[m.ID] = true
	}
	net := dissent.NewSimNet()
	net.SetLatency(func(from, to dissent.NodeID) time.Duration {
		if isServer[from] && isServer[to] {
			return 10 * time.Millisecond
		}
		return 50 * time.Millisecond
	})

	ctx := context.Background()
	var watch *dissent.Session
	var clientSessions []*dissent.Session
	for _, k := range serverKeys {
		s := member(net, grp, k)
		if watch == nil {
			watch = s
		}
	}
	for _, k := range clientKeys {
		clientSessions = append(clientSessions, member(net, grp, k))
	}

	// ~2 posters (the paper's ~2% at scale) carry a backlog of
	// 128-byte posts; everyone else is pure anonymity set.
	posters := *clients / 8
	if posters < 1 {
		posters = 1
	}
	for i := 0; i < posters; i++ {
		c := clientSessions[i*(*clients)/posters]
		for k := 0; k < *rounds+2; k++ {
			must(c.Send(ctx, []byte(fmt.Sprintf("post %d from an anonymous source, round-sized padding......", k))))
		}
	}
	fmt.Printf("microblog: %d clients, %d servers, %d posters, wide-area latencies\n",
		*clients, *servers, posters)

	completions := watch.Subscribe(dissent.EventRoundComplete)
	var postsMu sync.Mutex
	posts := map[uint64]int{}
	go func() {
		for m := range watch.Messages() {
			postsMu.Lock()
			posts[m.Round]++
			postsMu.Unlock()
		}
	}()

	fmt.Printf("%-7s %-12s %s\n", "round", "wall-time", "posts")
	start := time.Now()
	prev := start
	for done := 0; done < *rounds; {
		e, ok := <-completions
		if !ok {
			log.Fatal("session stopped early")
		}
		now := time.Now()
		postsMu.Lock()
		n := posts[e.Round]
		postsMu.Unlock()
		fmt.Printf("%-7d %-12v %d\n", e.Round, now.Sub(prev).Round(time.Millisecond), n)
		prev = now
		done++
	}
	fmt.Printf("\n%d certified rounds in %v (includes the verifiable scheduling shuffle)\n",
		*rounds, time.Since(start).Round(time.Millisecond))
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
