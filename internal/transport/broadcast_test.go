package transport

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"dissent/internal/core"
	"dissent/internal/group"
)

// TestEncodeFrameGolden pins the frame bytes for a fixed message to the
// ones the two-buffer encoder produced before frames were written
// straight into one buffer, and that writing costs one allocation.
func TestEncodeFrameGolden(t *testing.T) {
	var from group.NodeID
	copy(from[:], "nodeid00")
	var sid SessionID
	copy(sid[:], "golden-session-golden-session-go")
	msg := &core.Message{From: from, Type: core.MsgShare, Round: 0x0102030405060708,
		Body: []byte("golden body"), Sig: []byte("golden sig")}
	const want = "8000004e" + // tag bit | 32 + 46
		"676f6c64656e2d73657373696f6e2d676f6c64656e2d73657373696f6e2d676f" + // session ID
		"08" + "0102030405060708" + "6e6f646569643030" + // type, round, sender
		"0000000b" + "676f6c64656e20626f6479" + // body
		"0000000a" + "676f6c64656e20736967" // signature
	if got := hex.EncodeToString(encodeFrame(sid, msg)); got != want {
		t.Fatalf("frame bytes changed:\n got %s\nwant %s", got, want)
	}
	if avg := testing.AllocsPerRun(50, func() { encodeFrame(sid, msg) }); avg != 1 {
		t.Fatalf("encodeFrame allocates %.1f times per frame, want 1", avg)
	}
}

// TestEncodeFrameGoldenMergedInventory pins the wire form of the one
// message whose body this protocol version extended: an inventory that
// carries the speculative commitment — attempt, client list, then two
// length-prefixed digests (share commitment, beacon commitment), each of
// which is written with length zero when absent.
func TestEncodeFrameGoldenMergedInventory(t *testing.T) {
	var from group.NodeID
	copy(from[:], "nodeid00")
	var sid SessionID
	copy(sid[:], "golden-session-golden-session-go")
	inv := &core.Inventory{Attempt: 0, Clients: []int32{1, 3},
		Hash: bytes.Repeat([]byte{0xAA}, 32), BeaconCommit: bytes.Repeat([]byte{0xBB}, 32)}
	msg := &core.Message{From: from, Type: core.MsgInventory, Round: 9, Body: inv.Encode(), Sig: []byte("golden sig")}
	const want = "8000009b" + // tag bit | 32 + 123
		"676f6c64656e2d73657373696f6e2d676f6c64656e2d73657373696f6e2d676f" + // session ID
		"06" + "0000000000000009" + "6e6f646569643030" + // type, round, sender
		"00000058" + // body: 88 bytes
		"00000000" + "00000002" + "00000001" + "00000003" + // attempt, two clients
		"00000020" + "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa" + // share commitment
		"00000020" + "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb" + // beacon commitment
		"0000000a" + "676f6c64656e20736967" // signature
	if got := hex.EncodeToString(encodeFrame(sid, msg)); got != want {
		t.Fatalf("frame bytes changed:\n got %s\nwant %s", got, want)
	}
	plain := (&core.Inventory{Attempt: 2, Clients: []int32{7}}).Encode()
	if got, want := hex.EncodeToString(plain), "00000002"+"00000001"+"00000007"+"00000000"+"00000000"; got != want {
		t.Fatalf("inventory without a commitment encodes as %s, want %s", got, want)
	}
}

// rawPeers opens k bare TCP listeners — peers that see the bytes on the
// wire, not decoded messages — registers them in m's test session, and
// returns their IDs and a channel per peer yielding the first readN
// bytes it received (nothing when readN is 0: the peer only drains, so
// the test process allocates nothing on its behalf).
func rawPeers(t *testing.T, m *Mesh, k, readN int) ([]group.NodeID, []chan []byte) {
	t.Helper()
	ids := make([]group.NodeID, k)
	got := make([]chan []byte, k)
	for i := range ids {
		copy(ids[i][:], fmt.Sprintf("rawpeer%d", i))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		ch := make(chan []byte, 1)
		got[i] = ch
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				ch <- nil
				return
			}
			defer conn.Close()
			if readN == 0 {
				io.Copy(io.Discard, conn)
				return
			}
			b := make([]byte, readN)
			n, _ := io.ReadFull(conn, b)
			ch <- b[:n]
		}()
		if err := m.AddPeer(testSID, ids[i], ln.Addr().String()); err != nil {
			t.Fatal(err)
		}
	}
	return ids, got
}

// TestBroadcastDeliversIdenticalFrames: one Broadcast to k peers puts
// the same bytes on every connection — the frame encodeFrame yields —
// because all k queues share the one buffer.
func TestBroadcastDeliversIdenticalFrames(t *testing.T) {
	var from group.NodeID
	copy(from[:], "sender00")
	msgs := []*core.Message{
		{From: from, Type: core.MsgOutput, Round: 1, Body: bytes.Repeat([]byte("round vector "), 5000), Sig: []byte("sig-1")},
		{From: from, Type: core.MsgOutput, Round: 2, Body: []byte("second"), Sig: []byte("sig-2")},
	}
	var want []byte
	for _, msg := range msgs {
		want = append(want, encodeFrame(testSID, msg)...)
	}
	m := listenMesh(t, func(*core.Message) {}, nil)
	ids, got := rawPeers(t, m, 4, len(want))
	for _, msg := range msgs {
		if err := m.Broadcast(testSID, ids, msg); err != nil {
			t.Fatal(err)
		}
	}
	for i, ch := range got {
		select {
		case b := <-ch:
			if !bytes.Equal(b, want) {
				t.Errorf("peer %d read %d bytes that differ from the %d-byte frames sent", i, len(b), len(want))
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("peer %d never finished reading", i)
		}
	}
}

// TestBroadcastUnreachablePeerDoesNotBlockOthers: a recipient missing
// from the roster is reported, and the rest still get the message.
func TestBroadcastUnreachablePeerDoesNotBlockOthers(t *testing.T) {
	var atB recvd2
	a := listenMesh(t, func(*core.Message) {}, nil)
	b := listenMesh(t, atB.record(), nil)
	var idB, ghost group.NodeID
	copy(idB[:], "node-BBB")
	copy(ghost[:], "ghost-id")
	if err := a.AddPeer(testSID, idB, b.Addr()); err != nil {
		t.Fatal(err)
	}
	err := a.Broadcast(testSID, []group.NodeID{ghost, idB}, &core.Message{From: idB, Type: core.MsgOutput, Body: []byte("hi")})
	if err == nil {
		t.Fatal("broadcast naming an unknown node reported no error")
	}
	deadline := time.After(10 * time.Second)
	for {
		atB.mu.Lock()
		n := len(atB.msgs)
		atB.mu.Unlock()
		if n == 1 {
			return
		}
		select {
		case <-deadline:
			t.Fatal("the reachable peer never got the broadcast")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestBroadcastAllocatesOneFramePerMessage: the bytes a broadcast
// allocates do not grow with the number of recipients — one frame-sized
// buffer per message, shared by every connection queue.
func TestBroadcastAllocatesOneFramePerMessage(t *testing.T) {
	const bodyLen = 512 << 10
	var from group.NodeID
	copy(from[:], "sender00")
	msg := &core.Message{From: from, Type: core.MsgOutput, Round: 1, Body: make([]byte, bodyLen), Sig: []byte("sig")}
	perBroadcast := func(k int) uint64 {
		m := listenMesh(t, func(*core.Message) {}, nil)
		ids, _ := rawPeers(t, m, k, 0)
		if err := m.Broadcast(testSID, ids, msg); err != nil { // dials; not measured
			t.Fatal(err)
		}
		const rounds = 8
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			if err := m.Broadcast(testSID, ids, msg); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / rounds
	}
	for _, k := range []int{1, 4} {
		if got := perBroadcast(k); got < bodyLen || got > bodyLen*3/2 {
			t.Errorf("broadcast to %d peers allocates %d bytes per message, want about one %d-byte frame", k, got, bodyLen)
		}
	}
}
