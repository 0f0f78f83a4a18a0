package simnet

import (
	"sync"
	"testing"
	"time"

	"dissent/internal/group"
)

func hubIDs(names ...string) []group.NodeID {
	ids := make([]group.NodeID, len(names))
	for i, n := range names {
		copy(ids[i][:], n)
	}
	return ids
}

// collector records payloads delivered to one member, in order.
type collector struct {
	mu   sync.Mutex
	got  []int
	cond *sync.Cond
}

func newCollector() *collector {
	c := &collector{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *collector) recv(p any) {
	c.mu.Lock()
	c.got = append(c.got, p.(int))
	c.cond.Broadcast()
	c.mu.Unlock()
}

// waitLen blocks until n payloads arrived or the deadline passes.
func (c *collector) waitLen(t *testing.T, n int, d time.Duration) []int {
	t.Helper()
	deadline := time.Now().Add(d)
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.got) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d payloads after %v", len(c.got), n, d)
		}
		c.mu.Unlock()
		time.Sleep(time.Millisecond)
		c.mu.Lock()
	}
	return append([]int(nil), c.got...)
}

// TestFaultJitterPreservesOrder pins the satellite requirement: under
// random jitter, per-pair delivery order is still FIFO (the monotonic
// per-pair clamp), exactly like a TCP stream under delay variance.
func TestFaultJitterPreservesOrder(t *testing.T) {
	ids := hubIDs("node-AAA", "node-BBB")
	h := NewHub()
	defer h.Close()
	h.SetFaultSeed(42)
	h.SetLinkFault(ids[0], ids[1], FaultSpec{
		Latency: time.Millisecond,
		Jitter:  20 * time.Millisecond,
	})
	c := newCollector()
	if err := h.AttachSession(testSID, ids[1], c.recv); err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		if err := h.SendSession(testSID, ids[0], ids[1], i); err != nil {
			t.Fatal(err)
		}
	}
	got := c.waitLen(t, n, 10*time.Second)
	for i, v := range got {
		if v != i {
			t.Fatalf("delivery %d carried payload %d: jitter reordered the stream (%v...)", i, v, got[:i+1])
		}
	}
}

// TestFaultDropRateDeterministic checks that drops follow the seeded
// RNG: the same seed drops the same subset, a different seed differs.
func TestFaultDropRateDeterministic(t *testing.T) {
	run := func(seed int64) []int {
		ids := hubIDs("node-AAA", "node-BBB")
		h := NewHub()
		defer h.Close()
		h.SetFaultSeed(seed)
		h.SetLinkFault(ids[0], ids[1], FaultSpec{DropRate: 0.5})
		c := newCollector()
		if err := h.AttachSession(testSID, ids[1], c.recv); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if err := h.SendSession(testSID, ids[0], ids[1], i); err != nil {
				t.Fatal(err)
			}
		}
		// Survivors deliver immediately (no latency); a short settle
		// suffices.
		time.Sleep(50 * time.Millisecond)
		c.mu.Lock()
		defer c.mu.Unlock()
		return append([]int(nil), c.got...)
	}
	a1, a2, b := run(7), run(7), run(8)
	if len(a1) == 0 || len(a1) == 200 {
		t.Fatalf("drop rate 0.5 delivered %d/200", len(a1))
	}
	if len(a1) != len(a2) {
		t.Fatalf("same seed delivered %d vs %d payloads", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("same seed diverged at delivery %d: %d vs %d", i, a1[i], a2[i])
		}
	}
	same := len(a1) == len(b)
	if same {
		for i := range a1 {
			if a1[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical drop patterns")
	}
}

// TestFaultPartitionUntil checks the hard partition: everything sent
// before the deadline is lost, traffic after it flows again.
func TestFaultPartitionUntil(t *testing.T) {
	ids := hubIDs("node-AAA", "node-BBB")
	h := NewHub()
	defer h.Close()
	until := time.Now().Add(100 * time.Millisecond)
	h.SetLinkFault(ids[0], ids[1], FaultSpec{PartitionUntil: until})
	c := newCollector()
	if err := h.AttachSession(testSID, ids[1], c.recv); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := h.SendSession(testSID, ids[0], ids[1], i); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(time.Until(until) + 20*time.Millisecond)
	c.mu.Lock()
	lost := len(c.got)
	c.mu.Unlock()
	if lost != 0 {
		t.Fatalf("%d payloads crossed the partition", lost)
	}
	if err := h.SendSession(testSID, ids[0], ids[1], 99); err != nil {
		t.Fatal(err)
	}
	got := c.waitLen(t, 1, 5*time.Second)
	if got[0] != 99 {
		t.Fatalf("post-partition payload %d, want 99", got[0])
	}
}

// TestScheduleLinkFault checks the timed fault window: traffic flows
// before the window opens, is dropped inside it, and flows again after
// the window's duration elapses.
func TestScheduleLinkFault(t *testing.T) {
	ids := hubIDs("node-AAA", "node-BBB")
	h := NewHub()
	defer h.Close()
	h.ScheduleLinkFault(ids[0], ids[1], FaultSpec{DropRate: 1.0},
		60*time.Millisecond, 100*time.Millisecond)
	c := newCollector()
	if err := h.AttachSession(testSID, ids[1], c.recv); err != nil {
		t.Fatal(err)
	}
	// Before the window: delivered.
	if err := h.SendSession(testSID, ids[0], ids[1], 1); err != nil {
		t.Fatal(err)
	}
	got := c.waitLen(t, 1, 5*time.Second)
	if got[0] != 1 {
		t.Fatalf("pre-window payload %d, want 1", got[0])
	}
	// Inside the window: dropped.
	time.Sleep(90 * time.Millisecond)
	if err := h.SendSession(testSID, ids[0], ids[1], 2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	c.mu.Lock()
	n := len(c.got)
	c.mu.Unlock()
	if n != 1 {
		t.Fatalf("%d payloads delivered during the fault window, want 1", n)
	}
	// After the window clears itself: delivered again.
	time.Sleep(60 * time.Millisecond)
	if err := h.SendSession(testSID, ids[0], ids[1], 3); err != nil {
		t.Fatal(err)
	}
	got = c.waitLen(t, 2, 5*time.Second)
	if got[1] != 3 {
		t.Fatalf("post-window payload %d, want 3", got[1])
	}
}

// TestScheduleLinkFaultCancelledOnClose checks that Close stops pending
// fault timers: a window scheduled far out must not fire against a new
// hub's state or leak a timer.
func TestScheduleLinkFaultCancelledOnClose(t *testing.T) {
	ids := hubIDs("node-AAA", "node-BBB")
	h := NewHub()
	h.ScheduleLinkFault(ids[0], ids[1], FaultSpec{DropRate: 1.0},
		10*time.Millisecond, 0)
	h.Close()
	// The apply timer may already be queued; firing against a closed hub
	// must be a no-op rather than a panic or map write.
	time.Sleep(30 * time.Millisecond)
}

// TestFaultOtherLinksUnaffected checks fault isolation: a fault on one
// link leaves other pairs' traffic untouched.
func TestFaultOtherLinksUnaffected(t *testing.T) {
	ids := hubIDs("node-AAA", "node-BBB", "node-CCC")
	h := NewHub()
	defer h.Close()
	h.SetLinkFault(ids[0], ids[1], FaultSpec{DropRate: 1.0})
	c := newCollector()
	if err := h.AttachSession(testSID, ids[1], c.recv); err != nil {
		t.Fatal(err)
	}
	if err := h.SendSession(testSID, ids[0], ids[1], 1); err != nil {
		t.Fatal(err)
	}
	if err := h.SendSession(testSID, ids[2], ids[1], 2); err != nil {
		t.Fatal(err)
	}
	got := c.waitLen(t, 1, 5*time.Second)
	if got[0] != 2 {
		t.Fatalf("got payload %d, want only the unfaulted link's 2", got[0])
	}
	h.ClearLinkFault(ids[0], ids[1])
	if err := h.SendSession(testSID, ids[0], ids[1], 3); err != nil {
		t.Fatal(err)
	}
	got = c.waitLen(t, 2, 5*time.Second)
	if got[1] != 3 {
		t.Fatalf("cleared link delivered %d, want 3", got[1])
	}
}
