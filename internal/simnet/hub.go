package simnet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dissent/internal/group"
)

// Hub is the real-time sibling of the discrete-event Network: an
// in-process message fabric connecting a set of nodes by ID, with an
// optional latency model, running on the wall clock. It exists so the
// public dissent SDK can offer the same Transport contract over an
// in-memory medium as over TCP — tests and the quickstart example run
// the production Node lifecycle without sockets.
//
// Like the TCP mesh, the hub routes by (session, member): many
// concurrent Dissent groups share one hub, each under its own session
// ID, and a payload sent within one session can never surface in
// another. The session-less Attach/Detach/Send forms address the zero
// session and remain equivalent to the pre-session behavior.
//
// Payloads are opaque to the hub. Delivery preserves per-(from,to)
// FIFO order as long as Latency is a pure function of the endpoint
// pair: each member drains a deliver-at-ordered queue (sequence
// numbers break ties), so two messages A→B sent in order are handed
// to B's callback in order, exactly like a TCP stream.
type Hub struct {
	// Latency returns the one-way propagation delay from → to. Nil (or
	// a zero return) delivers immediately. Set before the first Attach;
	// it is read concurrently afterwards.
	Latency func(from, to group.NodeID) time.Duration

	mu      sync.Mutex
	members map[hubKey]*hubMember
	pending map[hubKey][]hubDelivery
	seq     int64
	closed  bool

	// Fault injection (SetLinkFault): per-link specs, a seeded RNG for
	// reproducible drop/jitter draws, and per-directed-pair last
	// scheduled delivery times so jitter never reorders a pair's
	// stream (delivery stays TCP-like FIFO).
	faults   map[linkKey]FaultSpec
	faultRNG *rand.Rand
	lastAt   map[pairKey]time.Time

	// Timers armed by ScheduleLinkFault; stopped on Close so a
	// scenario's pre-programmed fault schedule cannot outlive the hub.
	faultTimers []*time.Timer
}

// FaultSpec models an impaired link for fault-injection tests: fixed
// extra one-way latency, uniform random jitter on top, a probabilistic
// drop rate in [0,1], and a hard partition until a wall-clock deadline
// (every payload dropped before it). Jitter never reorders a directed
// pair's stream: delivery times are clamped monotonic per (from, to),
// mirroring TCP's in-order delivery under delay variance.
type FaultSpec struct {
	Latency        time.Duration
	Jitter         time.Duration
	DropRate       float64
	PartitionUntil time.Time
}

// linkKey identifies an undirected member pair.
type linkKey struct{ a, b group.NodeID }

// pairKey identifies a directed per-session stream.
type pairKey struct {
	sid      [32]byte
	from, to group.NodeID
}

func normLink(a, b group.NodeID) linkKey {
	if string(a[:]) > string(b[:]) {
		a, b = b, a
	}
	return linkKey{a: a, b: b}
}

// SetLinkFault installs (or, with a zero spec, effectively clears) a
// fault model on the undirected link between a and b, applying to both
// directions and every session. Draws come from a deterministic seeded
// RNG (SetFaultSeed), so a failing churn test replays identically.
func (h *Hub) SetLinkFault(a, b group.NodeID, spec FaultSpec) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.setLinkFaultLocked(a, b, spec)
}

// ClearLinkFault removes the fault model on a link.
func (h *Hub) ClearLinkFault(a, b group.NodeID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.faults, normLink(a, b))
}

// setLinkFaultLocked is SetLinkFault's body for callers holding h.mu.
func (h *Hub) setLinkFaultLocked(a, b group.NodeID, spec FaultSpec) {
	if h.faults == nil {
		h.faults = make(map[linkKey]FaultSpec)
		h.lastAt = make(map[pairKey]time.Time)
	}
	h.faults[normLink(a, b)] = spec
}

// ScheduleLinkFault arms a timed fault window on the undirected link
// between a and b: after `after` elapses the spec installs (both
// directions, every session), and `duration` later it clears again. A
// zero or negative duration leaves the fault in place until
// ClearLinkFault. Scenario harnesses use this to pre-program a run's
// whole fault schedule before the workload starts; pending windows die
// with the hub on Close.
func (h *Hub) ScheduleLinkFault(a, b group.NodeID, spec FaultSpec, after, duration time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	apply := time.AfterFunc(after, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if h.closed {
			return
		}
		h.setLinkFaultLocked(a, b, spec)
	})
	h.faultTimers = append(h.faultTimers, apply)
	if duration > 0 {
		clear := time.AfterFunc(after+duration, func() {
			h.mu.Lock()
			defer h.mu.Unlock()
			if h.closed {
				return
			}
			delete(h.faults, normLink(a, b))
		})
		h.faultTimers = append(h.faultTimers, clear)
	}
}

// SetFaultSeed seeds the fault RNG (default 1) for reproducible runs.
func (h *Hub) SetFaultSeed(seed int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.faultRNG = rand.New(rand.NewSource(seed))
}

// applyFaultLocked folds the link's fault spec into the delivery delay.
// It returns drop=true when the payload is lost. Callers hold h.mu.
func (h *Hub) applyFaultLocked(now time.Time, sid [32]byte, from, to group.NodeID, lat time.Duration) (time.Time, bool) {
	at := now.Add(lat)
	if spec, ok := h.faults[normLink(from, to)]; ok {
		if now.Before(spec.PartitionUntil) {
			return at, true
		}
		if h.faultRNG == nil {
			h.faultRNG = rand.New(rand.NewSource(1))
		}
		if spec.DropRate > 0 && h.faultRNG.Float64() < spec.DropRate {
			return at, true
		}
		at = at.Add(spec.Latency)
		if spec.Jitter > 0 {
			at = at.Add(time.Duration(h.faultRNG.Int63n(int64(spec.Jitter))))
		}
	}
	// Per-pair monotonic clamp: a later send never arrives before an
	// earlier one, so jitter cannot reorder the stream. Applied to every
	// pair once fault injection is in use — clearing or replacing a
	// link's spec must not let fresh sends overtake jittered in-flight
	// ones.
	pk := pairKey{sid: sid, from: from, to: to}
	if last := h.lastAt[pk]; at.Before(last) {
		at = last
	}
	h.lastAt[pk] = at
	return at, false
}

// hubKey addresses one member of one session.
type hubKey struct {
	sid [32]byte
	id  group.NodeID
}

// pendingCap bounds payloads buffered for a member that has not
// attached yet (the in-process analogue of TCP dial retries: a node
// may start sending before its peers' Run has dialed the medium).
const pendingCap = 4096

// NewHub creates an empty hub.
func NewHub() *Hub {
	return &Hub{
		members: make(map[hubKey]*hubMember),
		pending: make(map[hubKey][]hubDelivery),
	}
}

// Attach registers a member of the zero session (the single-group
// form): inbound payloads — including any buffered while the member
// was not yet attached — are handed to recv, one at a time, from a
// dedicated dispatcher goroutine.
func (h *Hub) Attach(id group.NodeID, recv func(payload any)) error {
	return h.AttachSession([32]byte{}, id, recv)
}

// AttachSession registers a member of one session. The same node ID
// may attach under several sessions; each attachment has its own
// inbound queue and dispatcher.
func (h *Hub) AttachSession(sid [32]byte, id group.NodeID, recv func(payload any)) error {
	k := hubKey{sid: sid, id: id}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return fmt.Errorf("simnet: hub closed")
	}
	if _, dup := h.members[k]; dup {
		return fmt.Errorf("simnet: member %s already attached in session %x", id, sid[:4])
	}
	m := newHubMember()
	h.members[k] = m
	for _, d := range h.pending[k] {
		m.enqueue(d)
	}
	delete(h.pending, k)
	go m.run(recv)
	return nil
}

// Detach removes a zero-session member and stops its dispatcher;
// payloads still in flight to it are dropped.
func (h *Hub) Detach(id group.NodeID) {
	h.DetachSession([32]byte{}, id)
}

// DetachSession removes one session's member.
func (h *Hub) DetachSession(sid [32]byte, id group.NodeID) {
	k := hubKey{sid: sid, id: id}
	h.mu.Lock()
	m := h.members[k]
	delete(h.members, k)
	h.mu.Unlock()
	if m != nil {
		m.close()
	}
}

// Close detaches every member of every session and cancels any fault
// windows still scheduled.
func (h *Hub) Close() {
	h.mu.Lock()
	h.closed = true
	members := h.members
	h.members = make(map[hubKey]*hubMember)
	timers := h.faultTimers
	h.faultTimers = nil
	h.mu.Unlock()
	for _, t := range timers {
		t.Stop()
	}
	for _, m := range members {
		m.close()
	}
}

// Send queues one payload within the zero session.
func (h *Hub) Send(from, to group.NodeID, payload any) error {
	return h.SendSession([32]byte{}, from, to, payload)
}

// SendSession queues one payload for delivery to `to` within a session
// after the modeled latency. A member that has not attached yet
// receives buffered payloads upon attaching — group members start in
// arbitrary order, exactly as on the TCP path, where dials retry until
// the peer's listener is up. The buffer is bounded; overflow fails the
// send.
func (h *Hub) SendSession(sid [32]byte, from, to group.NodeID, payload any) error {
	var lat time.Duration
	if h.Latency != nil {
		lat = h.Latency(from, to)
	}
	k := hubKey{sid: sid, id: to}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return fmt.Errorf("simnet: hub closed")
	}
	now := time.Now()
	at := now.Add(lat)
	if h.faults != nil {
		var drop bool
		if at, drop = h.applyFaultLocked(now, sid, from, to, lat); drop {
			return nil // lost on the wire, exactly like a dropped packet
		}
	}
	h.seq++
	d := hubDelivery{at: at, seq: h.seq, payload: payload}
	if m, ok := h.members[k]; ok {
		m.enqueue(d)
		return nil
	}
	if len(h.pending[k]) >= pendingCap {
		return fmt.Errorf("simnet: member %s not attached and its buffer is full", to)
	}
	h.pending[k] = append(h.pending[k], d)
	return nil
}

// hubDelivery is one queued payload with its due time.
type hubDelivery struct {
	at      time.Time
	seq     int64
	payload any
}

type deliveryHeap []hubDelivery

func (q deliveryHeap) Len() int { return len(q) }
func (q deliveryHeap) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q deliveryHeap) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *deliveryHeap) Push(x any)   { *q = append(*q, x.(hubDelivery)) }
func (q *deliveryHeap) Pop() (popped any) {
	old := *q
	n := len(old)
	popped = old[n-1]
	*q = old[:n-1]
	return
}

// hubMember is one attached node: a due-time-ordered inbound queue
// drained by a dispatcher goroutine. wake holds at most one pending
// signal that the head of the queue changed or the member closed: the
// dispatcher waits on it beside the head-of-queue timer, so a delivery
// due sooner than the one it is sleeping on (a 10 ms server link behind
// a 50 ms client link) and a close both reach it at once.
type hubMember struct {
	mu     sync.Mutex
	queue  deliveryHeap
	closed bool
	wake   chan struct{}
}

func newHubMember() *hubMember {
	return &hubMember{wake: make(chan struct{}, 1)}
}

// signal wakes the dispatcher; a signal already pending covers this one
// too, because the dispatcher re-reads the queue after every wake.
func (m *hubMember) signal() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

func (m *hubMember) enqueue(d hubDelivery) {
	m.mu.Lock()
	newHead := false
	if !m.closed {
		heap.Push(&m.queue, d)
		newHead = m.queue[0].seq == d.seq
	}
	m.mu.Unlock()
	if newHead {
		m.signal() // behind the head, the dispatcher's timer is still right
	}
}

func (m *hubMember) close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.signal()
}

// run drains the queue in due-time order. It hands over the head once
// it is due and otherwise waits for the head's due time or a wake,
// re-evaluating the head on either, so no delivery is held behind a
// later-due one and close stops the dispatcher immediately.
func (m *hubMember) run(recv func(any)) {
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return
		}
		var due <-chan time.Time // nil (blocks) while the queue is empty
		if len(m.queue) > 0 {
			next := m.queue[0]
			wait := time.Until(next.at)
			if wait <= 0 {
				heap.Pop(&m.queue)
				m.mu.Unlock()
				recv(next.payload)
				continue
			}
			timer.Reset(wait)
			due = timer.C
		}
		m.mu.Unlock()
		select {
		case <-m.wake:
		case <-due:
		}
	}
}
