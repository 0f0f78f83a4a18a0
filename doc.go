// Package dissent is a from-scratch Go implementation of Dissent, the
// scalable traffic-analysis-resistant anonymous group communication
// system of "Dissent in Numbers: Making Strong Anonymity Scale"
// (Wolinsky, Corrigan-Gibbs, Ford, Johnson — OSDI 2012), exposed as an
// embeddable SDK.
//
// Every member — anytrust server or anonymity-set client — is one
// Session on a Host. A deployment runs one TCP Host per member process:
//
//	grp, _ := dissentcfg.LoadGroup("group.json")
//	keys, _ := dissentcfg.LoadKeys("client-0.key", grp)
//	host, _ := dissent.NewHost(dissent.WithHostListenAddr(":7100"))
//	defer host.Close()                     // owns transport, timers, shutdown
//	sess, _ := host.OpenSession(grp, keys, dissent.WithRoster(roster))
//	sess.Send(ctx, []byte("anonymous"))    // queue into our pseudonym slot
//	for m := range sess.Messages() { ... } // the channel's cleartext
//	for e := range sess.Subscribe(dissent.EventRoundComplete) { ... }
//
// Rounds, slots, ciphertexts, shuffles, and certification stay behind
// the API: Send fragments payloads across certified DC-net rounds and
// Messages surfaces every slot's decoded output, attributed only to an
// unlinkable pseudonym slot. A Host runs over one of two fabrics — a
// TCP listener for deployment (WithHostListenAddr), or a SimNet for
// in-process groups (WithHostSimNet: tests, the quickstart example,
// embedded simulations).
//
// # Hosts and Sessions
//
// A Session is the per-group engine unit — its own protocol engine,
// timers, beacon chain, schedule certificate, and
// Send/Messages/Subscribe channels. Processes that serve many groups
// at once open several Sessions on one Host, which multiplexes them
// over its one fabric (a single TCP listener, or one SimNet hub):
//
//	host, _ := dissent.NewHost(dissent.WithHostListenAddr(":7000"))
//	a, _ := host.OpenSession(groupA, keysA, dissent.WithRoster(rosterA))
//	b, _ := host.OpenSession(groupB, keysB, dissent.WithRoster(rosterB))
//	for m := range a.Messages() { ... }     // sessions never share messages
//	host.CloseSession(a.SessionID())        // b keeps running
//
// A member whose key is not yet in the group enters mid-session with
// Host.OpenJoiner.
//
// Sessions are identified by their group's self-certifying ID; on the
// wire every frame carries that session tag, so the shared listener
// routes each message to the right engine and messages can never cross
// groups (see ARCHITECTURE.md for the design). Per-session and
// host-aggregated metrics — rounds/s, bytes in and out, submission
// window timings — are snapshots from Metrics; DebugHandler serves
// them as Prometheus text and JSON.
//
// Randomness-beacon access hangs off the Session: BeaconChain returns the
// verified replica, WithBeaconHTTP serves it (plus the schedule
// certificate anchoring the chain's session-bound genesis), and
// SyncBeacon is the external verifier's fetch-and-verify path. Each
// entry is a certified round's certificate — one collective signature
// under the servers' aggregate key, chained over the previous value —
// so a verifier checks one signature per entry.
//
// Group material lives in the sibling package dissentcfg (key files,
// group definitions, rosters, generation); the protocol itself — the
// sans-I/O client/server engines (Algorithms 1–2), DC-net slot
// machinery, verifiable shuffles, the anytrust beacon, and the
// evaluation harnesses reproducing the paper's figures — remains under
// internal/, consumed only through this package.
//
// Entry points built on the SDK: cmd/dissentd (multi-group server
// daemon), cmd/dissent (client with HTTP API, SOCKS proxy, and a
// beacon fetch/verify subcommand), cmd/keygen (group creation), and
// cmd/dissent-bench (the evaluation). Runnable walkthroughs live in
// examples/ — examples/quickstart for one group, examples/multitenant
// for several behind one Host.
package dissent

// Version identifies this reproduction release.
const Version = "2.1.0"
