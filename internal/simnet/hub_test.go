package simnet

import (
	"sync"
	"testing"
	"time"

	"dissent/internal/group"
)

// testSID is the session the single-group hub tests run under.
var testSID = [32]byte{0xd1}

func hubID(s string) group.NodeID {
	var id group.NodeID
	copy(id[:], s)
	return id
}

// TestHubDeliversInOrder checks per-pair FIFO under a nonzero latency
// model: 100 messages A→B arrive in send order.
func TestHubDeliversInOrder(t *testing.T) {
	h := NewHub()
	h.Latency = func(from, to group.NodeID) time.Duration { return time.Millisecond }
	defer h.Close()

	a, b := hubID("member-A"), hubID("member-B")
	var mu sync.Mutex
	var got []int
	done := make(chan struct{})
	if err := h.AttachSession(testSID, b, func(p any) {
		mu.Lock()
		got = append(got, p.(int))
		if len(got) == 100 {
			close(done)
		}
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if err := h.AttachSession(testSID, a, func(any) {}); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 100; i++ {
		if err := h.SendSession(testSID, a, b, i); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		mu.Lock()
		t.Fatalf("only %d/100 delivered", len(got))
	}
	mu.Lock()
	defer mu.Unlock()
	for i, v := range got {
		if v != i {
			t.Fatalf("position %d got %d: reordered", i, v)
		}
	}
}

// TestHubBuffersUntilAttach checks the startup-order tolerance: sends
// to a member that has not attached yet are buffered and delivered
// once it does — nodes of a group start in arbitrary order.
func TestHubBuffersUntilAttach(t *testing.T) {
	h := NewHub()
	defer h.Close()
	a, b := hubID("early-A"), hubID("late-B")
	for i := 0; i < 3; i++ {
		if err := h.SendSession(testSID, a, b, i); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	var got []int
	done := make(chan struct{})
	if err := h.AttachSession(testSID, b, func(p any) {
		mu.Lock()
		got = append(got, p.(int))
		if len(got) == 3 {
			close(done)
		}
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("buffered payloads not delivered after attach")
	}
	mu.Lock()
	defer mu.Unlock()
	for i, v := range got {
		if v != i {
			t.Fatalf("position %d got %d: reordered", i, v)
		}
	}
}

// TestHubSessionIsolation checks the multi-group routing: the same
// node ID attached under two sessions gets two independent queues, and
// a payload sent within one session never surfaces in the other.
func TestHubSessionIsolation(t *testing.T) {
	h := NewHub()
	defer h.Close()
	var s1, s2 [32]byte
	s1[0], s2[0] = 1, 2
	a, b := hubID("member-A"), hubID("member-B")

	type box struct {
		mu   sync.Mutex
		got  []string
		done chan struct{}
	}
	mk := func() *box { return &box{done: make(chan struct{})} }
	recv := func(bx *box, want int) func(any) {
		return func(p any) {
			bx.mu.Lock()
			bx.got = append(bx.got, p.(string))
			if len(bx.got) == want {
				close(bx.done)
			}
			bx.mu.Unlock()
		}
	}
	in1, in2 := mk(), mk()
	if err := h.AttachSession(s1, b, recv(in1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := h.AttachSession(s2, b, recv(in2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := h.AttachSession(s1, b, func(any) {}); err == nil {
		t.Fatal("duplicate (session, id) attach accepted")
	}

	for i := 0; i < 2; i++ {
		if err := h.SendSession(s1, a, b, "one"); err != nil {
			t.Fatal(err)
		}
		if err := h.SendSession(s2, a, b, "two"); err != nil {
			t.Fatal(err)
		}
	}
	for _, bx := range []*box{in1, in2} {
		select {
		case <-bx.done:
		case <-time.After(5 * time.Second):
			t.Fatal("session deliveries incomplete")
		}
	}
	in1.mu.Lock()
	defer in1.mu.Unlock()
	in2.mu.Lock()
	defer in2.mu.Unlock()
	for _, v := range in1.got {
		if v != "one" {
			t.Fatalf("session 1 received %q: crossed sessions", v)
		}
	}
	for _, v := range in2.got {
		if v != "two" {
			t.Fatalf("session 2 received %q: crossed sessions", v)
		}
	}

	// Detaching one session's member leaves the other attached.
	h.DetachSession(s1, b)
	if err := h.SendSession(s2, a, b, "two"); err != nil {
		t.Fatal(err)
	}
}

// TestHubDetachStopsDelivery checks no payloads reach a detached
// member's callback.
func TestHubDetachStopsDelivery(t *testing.T) {
	h := NewHub()
	defer h.Close()
	a, b := hubID("detach-A"), hubID("detach-B")
	var mu sync.Mutex
	n := 0
	if err := h.AttachSession(testSID, b, func(any) { mu.Lock(); n++; mu.Unlock() }); err != nil {
		t.Fatal(err)
	}
	h.DetachSession(testSID, b)
	if err := h.SendSession(testSID, a, b, 1); err != nil {
		t.Fatal(err) // buffered against a possible re-attach
	}
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if n != 0 {
		t.Errorf("%d payloads delivered after detach", n)
	}
}

// TestHubDuplicateAttach checks double registration is refused.
func TestHubDuplicateAttach(t *testing.T) {
	h := NewHub()
	defer h.Close()
	id := hubID("dup")
	if err := h.AttachSession(testSID, id, func(any) {}); err != nil {
		t.Fatal(err)
	}
	if err := h.AttachSession(testSID, id, func(any) {}); err == nil {
		t.Error("duplicate attach succeeded")
	}
}

// TestHubEarlierDueOvertakesSleeper pins on-time delivery across links
// of different latency: with a 50 ms delivery already pending for B (its
// dispatcher asleep until that is due), a 10 ms delivery sent 5 ms later
// from another peer must reach B when it is due — not when the sleeper
// wakes — and two messages on one directed pair still arrive in send
// order. The lateness bound is wall-clock, so a loaded machine gets a
// few tries; a dispatcher that cannot be woken misses it by ~35 ms on
// every one.
func TestHubEarlierDueOvertakesSleeper(t *testing.T) {
	far, near, b := hubID("far-client"), hubID("near-server"), hubID("member-B")
	const tries = 5
	var late time.Duration
	for try := 0; try < tries; try++ {
		h := NewHub()
		h.Latency = func(from, to group.NodeID) time.Duration {
			if from == far {
				return 50 * time.Millisecond
			}
			return 10 * time.Millisecond
		}
		type arrival struct {
			v  int
			at time.Time
		}
		got := make(chan arrival, 3)
		if err := h.AttachSession(testSID, b, func(p any) { got <- arrival{p.(int), time.Now()} }); err != nil {
			t.Fatal(err)
		}
		if err := h.SendSession(testSID, far, b, 1); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
		sent := time.Now()
		for _, v := range []int{2, 3} {
			if err := h.SendSession(testSID, near, b, v); err != nil {
				t.Fatal(err)
			}
		}
		var order []int
		for len(order) < 3 {
			select {
			case a := <-got:
				if a.v == 2 {
					late = a.at.Sub(sent.Add(10 * time.Millisecond))
				}
				order = append(order, a.v)
			case <-time.After(5 * time.Second):
				t.Fatalf("only %v delivered", order)
			}
		}
		h.Close()
		if order[0] != 2 || order[1] != 3 || order[2] != 1 {
			t.Fatalf("delivery order %v, want [2 3 1]", order)
		}
		if late <= 3*time.Millisecond {
			return
		}
	}
	t.Fatalf("the 10 ms delivery arrived %v after it was due on each of %d tries", late, tries)
}

// TestHubCloseStopsSleepingDispatcher: close reaches a dispatcher that
// is asleep on a far-off head delivery, instead of waiting it out.
func TestHubCloseStopsSleepingDispatcher(t *testing.T) {
	m := newHubMember()
	m.enqueue(hubDelivery{at: time.Now().Add(time.Hour), seq: 1})
	exited := make(chan struct{})
	go func() {
		m.run(func(any) { t.Error("delivered after close") })
		close(exited)
	}()
	time.Sleep(5 * time.Millisecond) // let the dispatcher reach its wait
	m.close()
	select {
	case <-exited:
	case <-time.After(2 * time.Second):
		t.Fatal("dispatcher still asleep 2 s after close")
	}
}
