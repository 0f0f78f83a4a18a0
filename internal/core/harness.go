package core

import (
	"fmt"
	"time"

	"dissent/internal/group"
	"dissent/internal/obs"
	"dissent/internal/simnet"
)

// Engine is the sans-I/O contract both Client and Server satisfy.
type Engine interface {
	Start(now time.Time) (*Output, error)
	Handle(now time.Time, m *Message) (*Output, error)
	Tick(now time.Time) (*Output, error)
}

// TimedEvent is an engine event stamped with virtual time and origin.
type TimedEvent struct {
	At   time.Time
	Node group.NodeID
	Event
}

// TimedDelivery is a delivery stamped with virtual time and origin.
type TimedDelivery struct {
	At   time.Time
	Node group.NodeID
	Delivery
}

// Harness runs a set of engines over a simnet.Network, applying a
// latency/bandwidth topology, optional measured compute time, and
// optional outbound delay/drop injection (used to replay client
// straggler traces). The same engines run unchanged over TCP via
// internal/transport.
type Harness struct {
	Net *simnet.Network

	// Latency returns one-way propagation delay between two nodes.
	Latency func(from, to group.NodeID) time.Duration
	// Outbound may delay or drop an outgoing message (delay is added on
	// top of link delays; drop loses it entirely).
	Outbound func(from group.NodeID, m *Message) (delay time.Duration, drop bool)
	// MeasureCompute, when positive, charges each engine call's real
	// execution time (scaled by this factor) as virtual compute time:
	// the node's responses leave only after the work it actually did
	// (pads, XORs, proofs) would have finished on a machine
	// MeasureCompute times slower than this one. A node handles its
	// messages one at a time, in arrival order.
	MeasureCompute float64

	// OnDelivery, when set, observes every delivery as it happens —
	// application drivers (e.g. the web-browsing workload) react to
	// anonymous-channel traffic through this hook.
	OnDelivery func(d TimedDelivery)

	nodes map[group.NodeID]*harnessNode

	// Logs. Traces holds each node's round spans in emission order.
	Events     []TimedEvent
	Traces     map[group.NodeID][]obs.RoundTrace
	Deliveries []TimedDelivery
	Errors     []error

	// BytesSent accumulates wire bytes by sender.
	BytesSent map[group.NodeID]int64
	// MsgCount accumulates message counts by type.
	MsgCount map[MsgType]int64
}

type harnessNode struct {
	id      group.NodeID
	engine  Engine
	uplink  simnet.Uplink
	cpuFree time.Time
}

// NewHarness creates an empty harness over a fresh network.
func NewHarness() *Harness {
	return &Harness{
		Net:       simnet.New(time.Unix(0, 0)),
		nodes:     make(map[group.NodeID]*harnessNode),
		Traces:    make(map[group.NodeID][]obs.RoundTrace),
		BytesSent: make(map[group.NodeID]int64),
		MsgCount:  make(map[MsgType]int64),
	}
}

// AddNode registers an engine with an access-link bandwidth in bytes
// per second (0 = infinite).
func (h *Harness) AddNode(id group.NodeID, e Engine, uplinkBps float64) {
	h.nodes[id] = &harnessNode{id: id, engine: e, uplink: simnet.Uplink{Bandwidth: uplinkBps}}
}

// Node returns a registered engine.
func (h *Harness) Node(id group.NodeID) Engine {
	if n, ok := h.nodes[id]; ok {
		return n.engine
	}
	return nil
}

// SwapEngine replaces the engine behind a node id in place. In-flight
// messages and timers target the node, not the engine, so they reach
// whichever engine is installed when they fire — which is exactly the
// crash/restart model: swap in a black hole while the process is down
// (its traffic is lost), then the restored engine.
func (h *Harness) SwapEngine(id group.NodeID, e Engine) {
	if n, ok := h.nodes[id]; ok {
		n.engine = e
	}
}

// StartAll invokes Start on every engine at the current virtual time.
func (h *Harness) StartAll() {
	for _, n := range h.nodes {
		n := n
		h.Net.Schedule(h.Net.Now(), func(now time.Time) {
			out, err, dt := h.call(n, func() (*Output, error) { return n.engine.Start(now) })
			h.process(now.Add(dt), n, out, err)
		})
	}
}

// call runs an engine entry point, measuring its real execution time
// when MeasureCompute is enabled.
func (h *Harness) call(n *harnessNode, fn func() (*Output, error)) (*Output, error, time.Duration) {
	if h.MeasureCompute <= 0 {
		out, err := fn()
		return out, err, 0
	}
	t0 := time.Now()
	out, err := fn()
	return out, err, time.Duration(float64(time.Since(t0)) * h.MeasureCompute)
}

// process consumes one engine output: transmissions, timers, logs.
func (h *Harness) process(now time.Time, n *harnessNode, out *Output, err error) {
	if err != nil {
		h.Errors = append(h.Errors, fmt.Errorf("node %s: %w", n.id, err))
		return
	}
	if out == nil {
		return
	}
	for _, ev := range out.Events {
		h.Events = append(h.Events, TimedEvent{At: now, Node: n.id, Event: ev})
	}
	if len(out.Traces) > 0 {
		h.Traces[n.id] = append(h.Traces[n.id], out.Traces...)
	}
	for _, d := range out.Deliveries {
		td := TimedDelivery{At: now, Node: n.id, Delivery: d}
		h.Deliveries = append(h.Deliveries, td)
		if h.OnDelivery != nil {
			h.OnDelivery(td)
		}
	}
	for _, env := range out.Send {
		h.transmit(now, n, env)
	}
	if !out.Timer.IsZero() {
		h.Net.Schedule(out.Timer, func(tnow time.Time) {
			tout, terr, dt := h.call(n, func() (*Output, error) { return n.engine.Tick(tnow) })
			h.process(tnow.Add(dt), n, tout, terr)
		})
	}
}

// transmit models one message's journey: uplink serialization, extra
// injected delay, propagation, receive-side compute, then Handle.
func (h *Harness) transmit(now time.Time, from *harnessNode, env Envelope) {
	to, ok := h.nodes[env.To]
	if !ok {
		h.Errors = append(h.Errors, fmt.Errorf("node %s sent %s to unknown node %s",
			from.id, env.Msg.Type, env.To))
		return
	}
	size := env.Msg.EncodedLen()
	h.BytesSent[from.id] += int64(size)
	h.MsgCount[env.Msg.Type]++

	var extra time.Duration
	if h.Outbound != nil {
		delay, drop := h.Outbound(from.id, env.Msg)
		if drop {
			return
		}
		extra = delay
	}
	txDone := from.uplink.Reserve(now.Add(extra), size)
	var lat time.Duration
	if h.Latency != nil {
		lat = h.Latency(from.id, env.To)
	}
	arrival := txDone.Add(lat)
	h.Net.Schedule(arrival, func(anow time.Time) { h.handle(to, anow, env.Msg) })
}

// handle runs to's Handle on m once to's CPU is free at or after now.
// Receive-side compute is serialized on the node's CPU, in arrival
// order: a message whose turn comes while measured work is still running
// waits for it, so per-pair message ordering (FIFO) is preserved.
func (h *Harness) handle(to *harnessNode, now time.Time, m *Message) {
	at := now
	if to.cpuFree.After(at) {
		at = to.cpuFree
	}
	h.Net.Schedule(at, func(hnow time.Time) {
		if to.cpuFree.After(hnow) {
			h.handle(to, hnow, m)
			return
		}
		out, err, dt := h.call(to, func() (*Output, error) { return to.engine.Handle(hnow, m) })
		to.cpuFree = hnow.Add(dt)
		h.process(to.cpuFree, to, out, err)
	})
}

// ProcessExternal feeds an engine output produced outside the normal
// Start/Handle/Tick flow (e.g. a trusted-bootstrap InstallSchedule)
// into the harness: its sends, timers, and logs are processed as if
// the engine had emitted them at time t.
func (h *Harness) ProcessExternal(id group.NodeID, t time.Time, out *Output, err error) {
	n, ok := h.nodes[id]
	if !ok {
		h.Errors = append(h.Errors, fmt.Errorf("ProcessExternal: unknown node %s", id))
		return
	}
	h.process(t, n, out, err)
}

// Run drives the network until idle or maxEvents (<=0: unbounded).
func (h *Harness) Run(maxEvents int64) { h.Net.Run(maxEvents) }

// RunUntil drives the network up to virtual time t.
func (h *Harness) RunUntil(t time.Duration) {
	h.Net.RunUntil(time.Unix(0, 0).Add(t))
}

// EventsOf filters logged events by kind.
func (h *Harness) EventsOf(kind EventKind) []TimedEvent {
	var out []TimedEvent
	for _, e := range h.Events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// FirstEvent returns the earliest event of the kind at the node, or nil.
func (h *Harness) FirstEvent(node group.NodeID, kind EventKind) *TimedEvent {
	for i := range h.Events {
		e := &h.Events[i]
		if e.Node == node && e.Kind == kind {
			return e
		}
	}
	return nil
}
