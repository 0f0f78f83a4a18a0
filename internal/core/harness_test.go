package core

import (
	"testing"
	"time"

	"dissent/internal/group"
)

// echoEngine is a trivial engine for harness plumbing tests: it
// replies to every message, reports an event on start, and asks for a
// tick.
type echoEngine struct {
	peer    group.NodeID
	started bool
	ticked  int
	got     []*Message
}

func (e *echoEngine) Start(now time.Time) (*Output, error) {
	e.started = true
	return &Output{
		Events: []Event{{Kind: EventScheduleReady, Detail: "echo up"}},
		Timer:  now.Add(time.Second),
	}, nil
}

func (e *echoEngine) Handle(now time.Time, m *Message) (*Output, error) {
	e.got = append(e.got, m)
	if m.Type == MsgClientSubmit {
		reply := &Message{From: m.From, Type: MsgOutput, Round: m.Round, Body: m.Body}
		return &Output{Send: []Envelope{{To: e.peer, Msg: reply}}}, nil
	}
	return &Output{}, nil
}

func (e *echoEngine) Tick(now time.Time) (*Output, error) {
	e.ticked++
	return &Output{}, nil
}

func hid(b byte) group.NodeID {
	var id group.NodeID
	id[0] = b
	return id
}

func TestHarnessDeliveryAndLatency(t *testing.T) {
	h := NewHarness()
	a, b := hid(1), hid(2)
	ea := &echoEngine{peer: b}
	eb := &echoEngine{peer: a}
	h.AddNode(a, ea, 0)
	h.AddNode(b, eb, 0)
	h.Latency = func(from, to group.NodeID) time.Duration { return 100 * time.Millisecond }

	h.StartAll()
	start := h.Net.Now()
	// Inject a message from a to b through the harness.
	h.ProcessExternal(a, start, &Output{Send: []Envelope{{To: b,
		Msg: &Message{From: a, Type: MsgClientSubmit, Round: 1, Body: []byte("x")}}}}, nil)
	h.Run(0)

	if len(eb.got) != 1 {
		t.Fatalf("b received %d messages", len(eb.got))
	}
	if len(ea.got) != 1 || ea.got[0].Type != MsgOutput {
		t.Fatalf("a did not get the echo reply: %+v", ea.got)
	}
	// The round trip took at least 2x latency.
	if h.Net.Now().Sub(start) < 200*time.Millisecond {
		t.Errorf("round trip finished after %v, want >= 200ms", h.Net.Now().Sub(start))
	}
	if !ea.started || !eb.started || ea.ticked == 0 {
		t.Error("start/tick plumbing broken")
	}
}

func TestHarnessUplinkSerialization(t *testing.T) {
	h := NewHarness()
	a, b := hid(1), hid(2)
	ea := &echoEngine{peer: b}
	eb := &echoEngine{peer: a}
	h.AddNode(a, ea, 1000) // 1000 B/s uplink
	h.AddNode(b, eb, 0)

	big := make([]byte, 2000)
	msg := &Message{From: a, Type: MsgInventory, Round: 1, Body: big}
	h.ProcessExternal(a, h.Net.Now(), &Output{Send: []Envelope{{To: b, Msg: msg}, {To: b, Msg: msg}}}, nil)
	h.Run(0)
	if len(eb.got) != 2 {
		t.Fatalf("b received %d messages", len(eb.got))
	}
	// Two ~2KB messages through 1000 B/s should take >= 4 seconds.
	if got := h.Net.Now().Sub(time.Unix(0, 0)); got < 4*time.Second {
		t.Errorf("transfer finished after %v, want >= 4s", got)
	}
}

func TestHarnessOutboundDropAndDelay(t *testing.T) {
	h := NewHarness()
	a, b := hid(1), hid(2)
	ea := &echoEngine{peer: b}
	eb := &echoEngine{peer: a}
	h.AddNode(a, ea, 0)
	h.AddNode(b, eb, 0)
	h.Outbound = func(from group.NodeID, m *Message) (time.Duration, bool) {
		if m.Round == 13 {
			return 0, true // drop
		}
		return 500 * time.Millisecond, false
	}
	send := func(round uint64) {
		h.ProcessExternal(a, h.Net.Now(), &Output{Send: []Envelope{{To: b,
			Msg: &Message{From: a, Type: MsgInventory, Round: round}}}}, nil)
	}
	send(13)
	send(14)
	h.Run(0)
	if len(eb.got) != 1 || eb.got[0].Round != 14 {
		t.Fatalf("drop/delay hook misbehaved: %+v", eb.got)
	}
	if h.Net.Now().Sub(time.Unix(0, 0)) < 500*time.Millisecond {
		t.Error("delay not applied")
	}
}

// slowEngine is an echoEngine whose Handle spends a known wall time.
type slowEngine struct {
	echoEngine
	spend time.Duration
}

func (e *slowEngine) Handle(now time.Time, m *Message) (*Output, error) {
	time.Sleep(e.spend)
	return e.echoEngine.Handle(now, m)
}

func TestHarnessMeasureComputeSerializesCPU(t *testing.T) {
	h := NewHarness()
	h.MeasureCompute = 1
	a, b := hid(1), hid(2)
	const spend = 20 * time.Millisecond
	eb := &slowEngine{echoEngine: echoEngine{peer: a}, spend: spend}
	h.AddNode(a, &echoEngine{peer: b}, 0)
	h.AddNode(b, eb, 0)

	out := &Output{}
	for i := 0; i < 3; i++ {
		out.Send = append(out.Send, Envelope{To: b,
			Msg: &Message{From: a, Type: MsgClientSubmit, Round: uint64(i)}})
	}
	h.ProcessExternal(a, h.Net.Now(), out, nil)
	h.Run(0)
	if len(eb.got) != 3 {
		t.Fatalf("b received %d messages", len(eb.got))
	}
	// Three messages arriving together, each handled in ≥ spend, are
	// echoed no sooner than 3 × spend on b's one CPU.
	if got := h.Net.Now().Sub(time.Unix(0, 0)); got < 3*spend {
		t.Errorf("CPU serialization: finished after %v, want >= %v", got, 3*spend)
	}
}

func TestHarnessUnknownDestination(t *testing.T) {
	h := NewHarness()
	a := hid(1)
	h.AddNode(a, &echoEngine{}, 0)
	h.ProcessExternal(a, h.Net.Now(), &Output{Send: []Envelope{{To: hid(9),
		Msg: &Message{From: a, Type: MsgInventory}}}}, nil)
	h.Run(0)
	if len(h.Errors) != 1 {
		t.Fatalf("expected 1 error, got %v", h.Errors)
	}
}

func TestHarnessAccounting(t *testing.T) {
	h := NewHarness()
	a, b := hid(1), hid(2)
	h.AddNode(a, &echoEngine{peer: b}, 0)
	h.AddNode(b, &echoEngine{peer: a}, 0)
	m := &Message{From: a, Type: MsgCommit, Round: 1, Body: make([]byte, 100)}
	h.ProcessExternal(a, h.Net.Now(), &Output{Send: []Envelope{{To: b, Msg: m}}}, nil)
	h.Run(0)
	if h.BytesSent[a] < 100 {
		t.Errorf("BytesSent[a] = %d", h.BytesSent[a])
	}
	if h.MsgCount[MsgCommit] != 1 {
		t.Errorf("MsgCount = %v", h.MsgCount)
	}
}

func TestEventKindStrings(t *testing.T) {
	for k := EventScheduleReady; k <= EventMisbehavior; k++ {
		if s := k.String(); len(s) == 0 || s[0] == 'e' && s != "event(0)" && len(s) > 6 && s[:6] == "event(" {
			t.Errorf("missing name for kind %d", k)
		}
	}
	if EventKind(99).String() != "event(99)" {
		t.Error("unknown kind formatting")
	}
}

func TestOutputMergeTimers(t *testing.T) {
	t1 := time.Unix(100, 0)
	t2 := time.Unix(50, 0)
	a := &Output{Timer: t1}
	a.merge(&Output{Timer: t2})
	if !a.Timer.Equal(t2) {
		t.Error("merge did not keep the earlier timer")
	}
	b := &Output{}
	b.merge(&Output{Timer: t1})
	if !b.Timer.Equal(t1) {
		t.Error("merge ignored timer on zero base")
	}
	b.merge(nil) // must not panic
}
