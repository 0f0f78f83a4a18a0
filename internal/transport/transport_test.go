package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"dissent/internal/core"
	"dissent/internal/group"
)

// testSID is the session every single-session test runs in.
var testSID = SessionID{0: 0x5E, 31: 0x1D}

// listenMesh opens a mesh with testSID bound to recv.
func listenMesh(t *testing.T, recv func(*core.Message), onError func(error)) *Mesh {
	t.Helper()
	m, err := NewMesh("127.0.0.1:0", onError)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	if err := m.Bind(testSID, Roster{}, recv); err != nil {
		t.Fatal(err)
	}
	return m
}

// untaggedFrame renders msg as a bare length-prefixed message — no tag
// bit, no session ID: what a peer outside the protocol would send.
func untaggedFrame(msg *core.Message) []byte {
	body := core.EncodeMessage(msg)
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// TestFrameRoundTrip checks framing on a stream: two frames written
// back to back read out as exactly those two messages, every field
// intact, and then a clean EOF.
func TestFrameRoundTrip(t *testing.T) {
	var from group.NodeID
	copy(from[:], "nodeid00")
	msgs := []*core.Message{
		{From: from, Type: core.MsgClientSubmit, Round: 7, Body: []byte("payload"), Sig: []byte("signature")},
		{From: from, Type: core.MsgOutput, Round: 8, Body: []byte("second")},
	}
	var buf bytes.Buffer
	for _, msg := range msgs {
		if err := WriteFrameSession(&buf, testSID, msg); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		_, _, got, err := ReadFrameSession(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Round != want.Round || got.From != from ||
			!bytes.Equal(got.Body, want.Body) || !bytes.Equal(got.Sig, want.Sig) {
			t.Fatalf("frame %d round trip mismatch: %+v", i, got)
		}
	}
	if _, _, _, err := ReadFrameSession(&buf); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// TestFrameBeyondReadAhead drives the reader's grow-as-bytes-arrive
// path: a frame several times frameReadAhead round-trips intact, fed in
// small chunks, and the same frame cut short is an error, not a message.
func TestFrameBeyondReadAhead(t *testing.T) {
	var from group.NodeID
	copy(from[:], "nodeid00")
	body := make([]byte, 3*frameReadAhead+12345)
	for i := range body {
		body[i] = byte(i * 7)
	}
	msg := &core.Message{From: from, Type: core.MsgShare, Round: 9, Body: body, Sig: []byte("signature")}
	var buf bytes.Buffer
	if err := WriteFrameSession(&buf, testSID, msg); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	sid, _, got, err := ReadFrameSession(iotest.OneByteReader(bytes.NewReader(frame[:64])))
	if err == nil {
		t.Fatalf("frame cut to 64 bytes read as %+v in session %x", got.Type, sid[:4])
	}
	sid, _, got, err = ReadFrameSession(iotest.HalfReader(bytes.NewReader(frame)))
	if err != nil {
		t.Fatal(err)
	}
	if sid != testSID || got.Round != 9 || !bytes.Equal(got.Body, body) || !bytes.Equal(got.Sig, msg.Sig) {
		t.Fatal("large frame round trip mismatch")
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	for name, hdr := range map[string][]byte{
		"oversized":   {0xFF, 0xFF, 0xFF, 0xFF},
		"zero-length": {0x80, 0, 0, 0},
		// Too short to hold the session tag, let alone a message.
		"undersized": {0x80, 0, 0, 16, 1, 2, 3},
		"tag only":   append([]byte{0x80, 0, 0, 32}, make([]byte, 32)...),
	} {
		if _, _, _, err := ReadFrameSession(bytes.NewReader(hdr)); err == nil {
			t.Errorf("%s frame accepted", name)
		}
	}
}

// TestFrameSessionRoundTrip checks the frame carries the session ID
// and pins its layout: tag bit, length over ID plus message, ID first.
func TestFrameSessionRoundTrip(t *testing.T) {
	var from group.NodeID
	copy(from[:], "nodeid00")
	var sid SessionID
	copy(sid[:], "session-tag-0123456789abcdef....")
	msg := &core.Message{From: from, Type: core.MsgCommit, Round: 42,
		Body: []byte("tagged payload"), Sig: []byte("sig")}

	var buf bytes.Buffer
	if err := WriteFrameSession(&buf, sid, msg); err != nil {
		t.Fatal(err)
	}
	frame := bytes.Clone(buf.Bytes())
	gotSID, tagged, got, err := ReadFrameSession(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !tagged || gotSID != sid {
		t.Fatalf("tag round trip: tagged=%v sid=%x", tagged, gotSID[:8])
	}
	if got.Round != 42 || !bytes.Equal(got.Body, msg.Body) || got.From != from {
		t.Fatalf("message round trip mismatch: %+v", got)
	}

	body := core.EncodeMessage(msg)
	want := binary.BigEndian.AppendUint32(nil, uint32(32+len(body))|frameTagged)
	want = append(append(want, sid[:]...), body...)
	if !bytes.Equal(frame, want) {
		t.Fatalf("frame layout changed:\n got %x\nwant %x", frame, want)
	}
}

// TestFrameRejectsUntagged checks a bare length-prefixed message — a
// well-formed one, so only the missing tag can be the reason — fails
// the read with an error that says so.
func TestFrameRejectsUntagged(t *testing.T) {
	var from group.NodeID
	copy(from[:], "nodeid00")
	msg := &core.Message{From: from, Type: core.MsgClientSubmit, Round: 7,
		Body: []byte("payload"), Sig: []byte("signature")}
	_, tagged, got, err := ReadFrameSession(bytes.NewReader(untaggedFrame(msg)))
	if err == nil || got != nil || tagged {
		t.Fatalf("untagged frame read as tagged=%v msg=%+v err=%v", tagged, got, err)
	}
	if !strings.Contains(err.Error(), "untagged") {
		t.Fatalf("untagged frame failed with %v, want an error naming the missing tag", err)
	}
}

// TestMeshSessionRouting binds two sessions on one mesh and checks
// tagged frames route exactly — never across sessions — while frames
// for unbound sessions are dropped and reported.
func TestMeshSessionRouting(t *testing.T) {
	var idA group.NodeID
	copy(idA[:], "node-AAA")
	var s1, s2, s3 SessionID
	s1[0], s2[0], s3[0] = 1, 2, 3

	type recvd struct {
		mu   sync.Mutex
		msgs []*core.Message
	}
	record := func(r *recvd) func(*core.Message) {
		return func(m *core.Message) {
			r.mu.Lock()
			r.msgs = append(r.msgs, m)
			r.mu.Unlock()
		}
	}
	var at1, at2 recvd
	var errMu sync.Mutex
	var errs []error
	a, err := NewMesh("127.0.0.1:0", func(e error) {
		errMu.Lock()
		errs = append(errs, e)
		errMu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	roster := Roster{idA: a.Addr()}
	if err := a.Bind(s1, roster, record(&at1)); err != nil {
		t.Fatal(err)
	}
	if err := a.Bind(s2, roster, record(&at2)); err != nil {
		t.Fatal(err)
	}
	if err := a.Bind(s1, roster, record(&at1)); err == nil {
		t.Fatal("duplicate bind accepted")
	}

	b, err := NewMesh("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for _, sid := range []SessionID{s1, s2, s3} {
		if err := b.Bind(sid, roster, func(*core.Message) {}); err != nil {
			t.Fatal(err)
		}
	}

	const n = 20
	for i := 0; i < n; i++ {
		if err := b.Broadcast(s1, []group.NodeID{idA}, &core.Message{From: idA, Type: core.MsgCommit,
			Round: uint64(i), Body: []byte("s1")}); err != nil {
			t.Fatal(err)
		}
		if err := b.Broadcast(s2, []group.NodeID{idA}, &core.Message{From: idA, Type: core.MsgShare,
			Round: uint64(i), Body: []byte("s2")}); err != nil {
			t.Fatal(err)
		}
	}
	// s3 is bound at the sender but not the receiver: dropped there.
	if err := b.Broadcast(s3, []group.NodeID{idA}, &core.Message{From: idA, Type: core.MsgOutput,
		Body: []byte("s3")}); err != nil {
		t.Fatal(err)
	}
	if err := b.Broadcast(SessionID{0xEE}, []group.NodeID{idA}, &core.Message{From: idA}); err == nil {
		t.Fatal("send on an unbound session accepted")
	}

	deadline := time.After(10 * time.Second)
	for {
		at1.mu.Lock()
		got1 := len(at1.msgs)
		at1.mu.Unlock()
		at2.mu.Lock()
		got2 := len(at2.msgs)
		at2.mu.Unlock()
		errMu.Lock()
		dropped := len(errs)
		errMu.Unlock()
		if got1 == n && got2 == n && dropped > 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("after 10s: s1 %d/%d, s2 %d/%d, dropped %d/1", got1, n, got2, n, dropped)
		case <-time.After(5 * time.Millisecond):
		}
	}
	at1.mu.Lock()
	defer at1.mu.Unlock()
	at2.mu.Lock()
	defer at2.mu.Unlock()
	for i, m := range at1.msgs {
		if string(m.Body) != "s1" || m.Round != uint64(i) {
			t.Fatalf("session 1 message %d: %q round %d (crossed or reordered)", i, m.Body, m.Round)
		}
	}
	for i, m := range at2.msgs {
		if string(m.Body) != "s2" || m.Round != uint64(i) {
			t.Fatalf("session 2 message %d: %q round %d (crossed or reordered)", i, m.Body, m.Round)
		}
	}
}

// TestMeshRejectsUntagged checks a live mesh reports an untagged frame
// through onError and hands it to no session — not even a sole bound
// one — then drops the connection it can no longer frame.
func TestMeshRejectsUntagged(t *testing.T) {
	got := make(chan *core.Message, 1)
	errs := make(chan error, 1)
	m := listenMesh(t, func(msg *core.Message) { got <- msg }, func(err error) { errs <- err })

	conn, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var from group.NodeID
	copy(from[:], "outsider")
	if _, err := conn.Write(untaggedFrame(&core.Message{From: from, Type: core.MsgOutput, Body: []byte("bare")})); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errs:
		if !strings.Contains(err.Error(), "untagged") {
			t.Fatalf("reported %v, want the untagged-frame error", err)
		}
	case msg := <-got:
		t.Fatalf("untagged frame reached the bound session: %+v", msg)
	case <-time.After(5 * time.Second):
		t.Fatal("untagged frame neither reported nor routed")
	}
	// The reader gave up on the stream: the mesh closes its end (EOF,
	// or a reset when the rest of the bad frame was still unread).
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var ne net.Error
	if _, err := conn.Read(make([]byte, 1)); err == nil || errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open after the bad frame: %v", err)
	}
	select {
	case msg := <-got:
		t.Fatalf("untagged frame reached the bound session: %+v", msg)
	default:
	}
}

// TestMeshExchange wires two meshes over loopback TCP and checks
// messages flow both ways, in order, across many frames. (Full-group
// protocol runs over TCP are covered by the SDK integration tests in
// the root dissent package.)
func TestMeshExchange(t *testing.T) {
	var idA, idB group.NodeID
	copy(idA[:], "node-AAA")
	copy(idB[:], "node-BBB")

	var atA, atB recvd2
	a := listenMesh(t, atA.record(), nil)
	b := listenMesh(t, atB.record(), nil)
	// Bind copies the roster, so late addresses (only known once the
	// listeners are up) register through AddPeer — the same path members
	// admitted mid-session by a roster update use.
	for _, m := range []*Mesh{a, b} {
		if err := m.AddPeer(testSID, idA, a.Addr()); err != nil {
			t.Fatal(err)
		}
		if err := m.AddPeer(testSID, idB, b.Addr()); err != nil {
			t.Fatal(err)
		}
	}

	const n = 50
	for i := 0; i < n; i++ {
		if err := a.Broadcast(testSID, []group.NodeID{idB}, &core.Message{From: idA, Type: core.MsgClientSubmit,
			Round: uint64(i), Body: []byte("a->b")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Broadcast(testSID, []group.NodeID{idA}, &core.Message{From: idB, Type: core.MsgOutput, Body: []byte("b->a")}); err != nil {
		t.Fatal(err)
	}

	deadline := time.After(10 * time.Second)
	for {
		atB.mu.Lock()
		gotB := len(atB.msgs)
		atB.mu.Unlock()
		atA.mu.Lock()
		gotA := len(atA.msgs)
		atA.mu.Unlock()
		if gotB == n && gotA == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("after 10s: B saw %d/%d, A saw %d/1", gotB, n, gotA)
		case <-time.After(10 * time.Millisecond):
		}
	}
	atB.mu.Lock()
	defer atB.mu.Unlock()
	for i, m := range atB.msgs {
		if m.Round != uint64(i) {
			t.Fatalf("message %d arrived with round %d: reordered", i, m.Round)
		}
	}
}

// TestMeshStats checks the connection-health accounting: a reachable
// peer shows up connected, an unreachable one accumulates dial
// failures with its last error retained, and the snapshot is sorted by
// address.
func TestMeshStats(t *testing.T) {
	var idA, idB, idDead group.NodeID
	copy(idA[:], "node-AAA")
	copy(idB[:], "node-BBB")
	copy(idDead[:], "node-DED")

	var atB recvd2
	a := listenMesh(t, func(*core.Message) {}, nil)
	b := listenMesh(t, atB.record(), nil)

	// A dead address: reserve a port, then close the listener so dials
	// are refused immediately.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	if err := a.AddPeer(testSID, idB, b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := a.AddPeer(testSID, idDead, deadAddr); err != nil {
		t.Fatal(err)
	}
	if err := a.Broadcast(testSID, []group.NodeID{idB}, &core.Message{From: idA, Type: core.MsgOutput, Body: []byte("hi")}); err != nil {
		t.Fatal(err)
	}
	if err := a.Broadcast(testSID, []group.NodeID{idDead}, &core.Message{From: idA, Type: core.MsgOutput, Body: []byte("void")}); err != nil {
		t.Fatal(err)
	}

	deadline := time.After(10 * time.Second)
	for {
		st := a.Stats()
		var live, gone *PeerStats
		for i := range st.Peers {
			switch st.Peers[i].Addr {
			case b.Addr():
				live = &st.Peers[i]
			case deadAddr:
				gone = &st.Peers[i]
			}
		}
		if live != nil && live.State == PeerConnected &&
			gone != nil && st.DialFailures >= 1 && gone.LastError != "" {
			if live.Dials == 0 || gone.Dials == 0 {
				t.Fatalf("dial counts not recorded: %+v / %+v", live, gone)
			}
			if gone.State != PeerDialing && gone.State != PeerFailed {
				t.Fatalf("dead peer state %q", gone.State)
			}
			for i := 1; i < len(st.Peers); i++ {
				if st.Peers[i-1].Addr > st.Peers[i].Addr {
					t.Fatalf("peers not sorted: %q > %q", st.Peers[i-1].Addr, st.Peers[i].Addr)
				}
			}
			return
		}
		select {
		case <-deadline:
			t.Fatalf("stats never settled: %+v", st)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// recvd2 is a small recorder for tests that only need counts.
type recvd2 struct {
	mu   sync.Mutex
	msgs []*core.Message
}

func (r *recvd2) record() func(*core.Message) {
	return func(m *core.Message) {
		r.mu.Lock()
		r.msgs = append(r.msgs, m)
		r.mu.Unlock()
	}
}

// TestMeshSendUnknownNode checks the roster miss path.
func TestMeshSendUnknownNode(t *testing.T) {
	m := listenMesh(t, func(*core.Message) {}, nil)
	var unknown group.NodeID
	copy(unknown[:], "ghost-id")
	if err := m.Broadcast(testSID, []group.NodeID{unknown}, &core.Message{From: unknown, Type: core.MsgOutput}); err == nil {
		t.Error("send to unknown node succeeded")
	}
}
