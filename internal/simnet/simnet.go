// Package simnet is a discrete-event network simulator: a virtual
// clock, an event queue, and link models (latency + bandwidth with
// access-link serialization). It reproduces the paper's testbed
// topologies (DeterLab: 100 Mbit/s links, 10 ms server–server and
// 50 ms client–server latency; Emulab WiFi: 24 Mbit/s, 10 ms;
// PlanetLab: heavy-tailed wide-area delays) so the real protocol
// engines can be measured at 5,000-client scale in virtual time on a
// single machine.
package simnet

import (
	"container/heap"
	"time"
)

// Event is a scheduled callback.
type event struct {
	at  time.Time
	seq int64 // tie-break for deterministic ordering
	fn  func(now time.Time)
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Network is a virtual-time event loop.
type Network struct {
	now    time.Time
	seq    int64
	events eventHeap
}

// New creates a network whose clock starts at start.
func New(start time.Time) *Network {
	return &Network{now: start}
}

// Now returns the current virtual time.
func (n *Network) Now() time.Time { return n.now }

// Schedule queues fn at the given virtual time (clamped to now).
func (n *Network) Schedule(at time.Time, fn func(now time.Time)) {
	if at.Before(n.now) {
		at = n.now
	}
	n.seq++
	heap.Push(&n.events, &event{at: at, seq: n.seq, fn: fn})
}

// After queues fn after a delay.
func (n *Network) After(d time.Duration, fn func(now time.Time)) {
	n.Schedule(n.now.Add(d), fn)
}

// Step executes the next event; it reports false when none remain.
func (n *Network) Step() bool {
	if len(n.events) == 0 {
		return false
	}
	e := heap.Pop(&n.events).(*event)
	n.now = e.at
	e.fn(n.now)
	return true
}

// Run executes events until the queue drains or maxEvents fire
// (maxEvents <= 0 means unbounded). It returns the number executed.
func (n *Network) Run(maxEvents int64) int64 {
	var c int64
	for (maxEvents <= 0 || c < maxEvents) && n.Step() {
		c++
	}
	return c
}

// RunUntil executes events with timestamps <= t; the clock ends at t
// if the queue drains earlier.
func (n *Network) RunUntil(t time.Time) {
	for len(n.events) > 0 && !n.events[0].at.After(t) {
		n.Step()
	}
	if n.now.Before(t) {
		n.now = t
	}
}

// Pending returns the number of queued events.
func (n *Network) Pending() int { return len(n.events) }

// Link models a point-to-point path: propagation latency plus a
// bandwidth-limited pipe.
type Link struct {
	Latency   time.Duration
	Bandwidth float64 // bytes per second; 0 = infinite
}

// TransferTime returns the serialization time of size bytes.
func (l Link) TransferTime(size int) time.Duration {
	if l.Bandwidth <= 0 {
		return 0
	}
	return time.Duration(float64(size) / l.Bandwidth * float64(time.Second))
}

// Uplink serializes a node's transmissions on its access link: a
// message cannot start transmitting until earlier ones finish — the
// effect that makes large fan-out broadcasts expensive for servers.
type Uplink struct {
	Bandwidth float64 // bytes per second; 0 = infinite
	free      time.Time
}

// Reserve books size bytes starting no earlier than now and returns
// the time the last byte leaves the node.
func (u *Uplink) Reserve(now time.Time, size int) time.Time {
	start := now
	if u.free.After(start) {
		start = u.free
	}
	if u.Bandwidth <= 0 {
		u.free = start
		return start
	}
	done := start.Add(time.Duration(float64(size) / u.Bandwidth * float64(time.Second)))
	u.free = done
	return done
}

// Mbps converts megabits per second to bytes per second.
func Mbps(m float64) float64 { return m * 1e6 / 8 }
