// Filesharing: the §5.2 data-sharing scenario on the public SDK — one
// anonymous client pushes 128 KB chunks through its DC-net slot while
// the rest of the group provides the anonymity set. Demonstrates slot
// growth via the length field (§3.8) — Send fragments each chunk and
// the slot widens across rounds — and reports effective anonymous
// throughput as one server observes it.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"dissent"
)

func main() {
	clients := flag.Int("clients", 8, "number of clients")
	servers := flag.Int("servers", 2, "number of servers")
	chunks := flag.Int("chunks", 4, "128 KB chunks to transfer")
	flag.Parse()

	const chunkSize = 128 << 10
	policy := dissent.DefaultPolicy()
	policy.MessageGroup = "modp-512-test"
	policy.WindowMin = 20 * time.Millisecond
	policy.DefaultOpenLen = 1024
	policy.MaxSlotLen = chunkSize + 4096
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
	grp, err := dissent.NewGroup("filesharing", serverKeys, clientKeys, policy)
	must(err)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := dissent.NewSimNet()
	var watch *dissent.Node
	var clientNodes []*dissent.Node
	for _, k := range serverKeys {
		n, err := dissent.NewServer(grp, k, dissent.WithTransport(net))
		must(err)
		if watch == nil {
			watch = n
		}
		go n.Run(ctx)
	}
	for _, k := range clientKeys {
		n, err := dissent.NewClient(grp, k, dissent.WithTransport(net))
		must(err)
		clientNodes = append(clientNodes, n)
		go n.Run(ctx)
	}

	// One sender, many cover-traffic peers. The sender's payload is
	// fragmented across rounds by the SDK; the application only sees
	// whole Send calls and per-round slot output.
	sender := clientNodes[0]
	payload := make([]byte, chunkSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	for k := 0; k < *chunks; k++ {
		must(sender.Send(ctx, payload))
	}
	want := *chunks * chunkSize
	fmt.Printf("filesharing: %d x 128 KB through a %d-client group (%d servers)\n",
		*chunks, *clients, *servers)

	received := 0
	var first time.Time
	for received < want {
		m, ok := <-watch.Messages()
		if !ok {
			log.Fatal("node stopped early")
		}
		if len(m.Data) == 0 {
			continue
		}
		if first.IsZero() {
			first = time.Now()
		}
		received += len(m.Data)
		fmt.Printf("  round %-3d +%6d bytes (total %d)\n", m.Round, len(m.Data), received)
	}
	elapsed := time.Since(first).Seconds()
	if elapsed > 0 {
		fmt.Printf("\nanonymous throughput: %.1f KB/s in-process (slot grew %d -> %d bytes)\n",
			float64(received)/1024/elapsed, policy.DefaultOpenLen, policy.MaxSlotLen)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
