package bench

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"dissent/internal/core"
	"dissent/internal/socks"
)

// TestSocksThroughDissent tunnels a TCP flow through a real Dissent
// session (§4.1 end to end): a SOCKS frame stream enters at one
// client, crosses the DC-net, exits at another client which dials a
// real local TCP origin, and the response returns through the channel.
func TestSocksThroughDissent(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	// Local origin: replies with a fixed banner then echoes.
	origin, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	go func() {
		for {
			c, err := origin.Accept()
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 1024)
				n, _ := c.Read(buf)
				c.Write(append([]byte("BANNER|"), buf[:n]...))
				c.Close()
			}()
		}
	}()

	s, err := BuildSession(SessionConfig{
		Servers: 2, Clients: 4, Profile: EmulabWiFi(), SlotLen: 512,
		Alpha: 0.9, AlphaSet: true,
		WindowMin: 10 * time.Millisecond, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	entryClient := s.Clients[0]
	exitClient := s.Clients[3]

	// The exit node: parses frames from the entry's slot, dials the
	// origin for real, responds through its own slot. Its sends arrive
	// from OS goroutines while the test goroutine drives the same
	// engine through Step, so both sides hold mu: every engine call
	// happens inside Step, and Step runs under the lock below.
	var mu sync.Mutex
	exit := socks.NewExit(func(data []byte) {
		mu.Lock()
		defer mu.Unlock()
		exitClient.Send(data)
	})

	var entryBuf, exitBuf []byte
	var response []byte
	s.H.OnDelivery = func(d core.TimedDelivery) {
		switch {
		case d.Node == exitClient.ID() && d.Slot == entryClient.Slot():
			exitBuf = append(exitBuf, d.Data...)
			frames, rest, err := socks.DecodeFrames(exitBuf)
			if err != nil {
				t.Errorf("exit decode: %v", err)
				return
			}
			exitBuf = rest
			exit.Deliver(frames)
		case d.Node == entryClient.ID() && d.Slot == exitClient.Slot():
			entryBuf = append(entryBuf, d.Data...)
			frames, rest, err := socks.DecodeFrames(entryBuf)
			if err != nil {
				t.Errorf("entry decode: %v", err)
				return
			}
			entryBuf = rest
			for _, f := range frames {
				if f.Kind == socks.FrameData {
					response = append(response, f.Data...)
				}
			}
		}
	}

	// Entry side: open a flow to the origin and send a payload.
	entryClient.Send(socks.EncodeFrame(socks.Frame{
		FlowID: 7, Kind: socks.FrameOpen, Data: []byte(origin.Addr().String())}))
	entryClient.Send(socks.EncodeFrame(socks.Frame{
		FlowID: 7, Kind: socks.FrameData, Data: []byte("hello origin")}))

	s.Bootstrap()
	want := []byte("BANNER|hello origin")
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && !bytes.Contains(response, want) {
		// The exit's real dial and reads happen on OS goroutines while
		// the simulation runs in virtual time; keep stepping and give
		// the OS side brief chances to catch up.
		for i := 0; i < 2000; i++ {
			mu.Lock()
			ok := s.H.Net.Step()
			mu.Unlock()
			if !ok {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, err := range s.H.Errors {
		t.Fatalf("harness error: %v", err)
	}
	if !bytes.Contains(response, want) {
		t.Fatalf("tunneled response %q does not contain %q", response, want)
	}
}
