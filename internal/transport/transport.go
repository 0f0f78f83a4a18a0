// Package transport moves signed protocol messages over real TCP
// connections: the deployment path under the public dissent SDK.
// Frames are length-prefixed encoded Messages, each tagged with a
// 32-byte session ID so one listener can carry many concurrent Dissent
// groups; identity and integrity come from the protocol-level
// signatures, so connections need no additional handshake. The package
// knows nothing about engines — it hands every inbound message to a
// per-session callback and exposes Broadcast for outbound envelopes;
// the SDK's Session owns the engine loop and timers.
//
// Wire format: a 4-byte big-endian length word with its top bit set,
// the session ID, then the encoded message; the length counts the ID
// and the message. A length word without the top bit is not a frame of
// this protocol and fails the read.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dissent/internal/core"
	"dissent/internal/group"
)

// maxFrame bounds a single message frame. The largest frames are round
// vectors (every open slot of a round, up to Policy.MaxSlotLen each)
// and the setup shuffle's proof transcripts; 64 MiB leaves both room.
const maxFrame = 64 << 20

// frameReadAhead is the most ReadFrameSession allocates on the strength
// of a length word alone — enough that every frame this protocol sends
// in practice (a bulk round vector is ~0.6 MiB) is read into a single
// exact-size buffer. A longer frame's buffer grows as its bytes arrive.
const frameReadAhead = 1 << 20

// frameTagged marks a session-tagged frame: the top bit of the length
// word. maxFrame < 1<<31, so the bit is never part of a length.
const frameTagged = 1 << 31

// SessionID tags frames with the group session they belong to. The SDK
// uses the group definition's self-certifying ID, so the tag needs no
// allocation protocol.
type SessionID = [32]byte

// Roster maps node IDs to dialable addresses.
type Roster map[group.NodeID]string

// Mesh is one process's view of the group fabric: a single listener
// accepting inbound connections for every bound session, plus lazily
// dialed outbound connections cached by address and shared across
// sessions. Inbound messages are decoded and routed by their frame's
// session tag to that session's recv callback (from per-connection
// goroutines; the caller serializes). Soft I/O errors and frames for
// unbound sessions go to onError.
type Mesh struct {
	onError func(error)

	ln net.Listener

	mu       sync.Mutex
	sessions map[SessionID]*meshSession
	conns    map[string]*lockedConn // keyed by dial address
	inbound  []net.Conn
	closed   bool

	// Connection-health accounting (Stats). The counters are atomics
	// and the peer map has its own leaf lock, so the dial and writer
	// goroutines can record failures while holding lockedConn.mu without
	// ordering against the mesh lock above.
	dialFailures  atomic.Uint64
	framesDropped atomic.Uint64
	peersMu       sync.Mutex
	peers         map[string]*peerEntry

	wg sync.WaitGroup
}

// Peer connection states reported by Stats.
const (
	PeerDialing   = "dialing"
	PeerConnected = "connected"
	PeerFailed    = "failed"
)

// peerEntry tracks one outbound peer address's connection health across
// redials. Guarded by Mesh.peersMu.
type peerEntry struct {
	dials   uint64
	state   string
	lastErr string
}

// PeerStats is one outbound peer's connection health.
type PeerStats struct {
	// Addr is the peer's dial address.
	Addr string `json:"addr"`
	// State is "dialing", "connected", or "failed" (the last dial or
	// write on the connection errored; the next send re-dials).
	State string `json:"state"`
	// Dials counts connection attempts to this address, including
	// retries and re-dials after failure.
	Dials uint64 `json:"dials"`
	// LastError is the most recent dial or write error, if any.
	LastError string `json:"last_error,omitempty"`
}

// Stats is a point-in-time snapshot of the mesh's transport health.
type Stats struct {
	// DialFailures counts failed outbound dial attempts (each retry of
	// a backing-off dial counts).
	DialFailures uint64 `json:"dial_failures"`
	// FramesDropped counts outbound frames lost to dial or write
	// failures.
	FramesDropped uint64 `json:"frames_dropped"`
	// Peers holds per-address connection health, sorted by address.
	Peers []PeerStats `json:"peers,omitempty"`
}

// Stats returns the mesh's transport-health snapshot: cumulative dial
// failures and dropped frames, plus per-peer connection state.
func (m *Mesh) Stats() Stats {
	s := Stats{
		DialFailures:  m.dialFailures.Load(),
		FramesDropped: m.framesDropped.Load(),
	}
	m.peersMu.Lock()
	for addr, pe := range m.peers {
		s.Peers = append(s.Peers, PeerStats{
			Addr: addr, State: pe.state, Dials: pe.dials, LastError: pe.lastErr,
		})
	}
	m.peersMu.Unlock()
	sort.Slice(s.Peers, func(i, j int) bool { return s.Peers[i].Addr < s.Peers[j].Addr })
	return s
}

// notePeer folds one connection-health observation into the peer map.
// dialed increments the attempt count; state and errStr (when
// non-empty) overwrite the peer's current health.
func (m *Mesh) notePeer(addr string, dialed bool, state, errStr string) {
	m.peersMu.Lock()
	defer m.peersMu.Unlock()
	if m.peers == nil {
		m.peers = make(map[string]*peerEntry)
	}
	pe := m.peers[addr]
	if pe == nil {
		pe = &peerEntry{}
		m.peers[addr] = pe
	}
	if dialed {
		pe.dials++
	}
	if state != "" {
		pe.state = state
	}
	if errStr != "" {
		pe.lastErr = errStr
	}
}

// meshSession is one bound session: its roster and inbound sink.
type meshSession struct {
	roster Roster
	recv   func(*core.Message)
}

// NewMesh binds addr with no sessions attached yet; Bind adds them.
// onError observes soft transport errors (may be nil).
func NewMesh(addr string, onError func(error)) (*Mesh, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	m := &Mesh{
		onError:  onError,
		ln:       ln,
		sessions: make(map[SessionID]*meshSession),
		conns:    make(map[string]*lockedConn),
	}
	m.wg.Add(1)
	go m.acceptLoop()
	return m, nil
}

// Bind attaches a session to the mesh: outbound Broadcast(sid, ...)
// resolves addresses through roster, and inbound frames tagged sid are
// handed to recv. The roster is copied, so the caller's map is not
// read afterwards; AddPeer extends the bound copy for members admitted
// mid-session.
func (m *Mesh) Bind(sid SessionID, roster Roster, recv func(*core.Message)) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("transport: mesh closed")
	}
	if _, dup := m.sessions[sid]; dup {
		return fmt.Errorf("transport: session %x already bound", sid[:4])
	}
	owned := make(Roster, len(roster))
	for id, addr := range roster {
		owned[id] = addr
	}
	m.sessions[sid] = &meshSession{roster: owned, recv: recv}
	return nil
}

// AddPeer registers (or updates) a member's dialable address in a bound
// session's roster — the mid-session attach path for members admitted
// by a roster update after the session was bound.
func (m *Mesh) AddPeer(sid SessionID, id group.NodeID, addr string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ms := m.sessions[sid]
	if ms == nil {
		return fmt.Errorf("transport: session %x not bound", sid[:4])
	}
	ms.roster[id] = addr
	return nil
}

// Unbind detaches a session; its inbound frames are dropped (reported
// to onError) from then on. Connections stay cached — they are shared
// with other sessions.
func (m *Mesh) Unbind(sid SessionID) {
	m.mu.Lock()
	delete(m.sessions, sid)
	m.mu.Unlock()
}

// Addr returns the bound listen address.
func (m *Mesh) Addr() string { return m.ln.Addr().String() }

// Close shuts the mesh down: the listener, every connection, and all
// reader goroutines.
func (m *Mesh) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	for _, c := range m.conns {
		c.close()
	}
	for _, c := range m.inbound {
		c.Close()
	}
	m.mu.Unlock()
	err := m.ln.Close()
	m.wg.Wait()
	return err
}

func (m *Mesh) acceptLoop() {
	defer m.wg.Done()
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return // listener closed
		}
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			conn.Close()
			return
		}
		m.inbound = append(m.inbound, conn)
		m.mu.Unlock()
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.readLoop(conn)
		}()
	}
}

func (m *Mesh) readLoop(conn net.Conn) {
	defer conn.Close()
	for {
		sid, _, msg, err := ReadFrameSession(conn)
		if err != nil {
			if !errors.Is(err, io.EOF) && !m.isClosed() {
				m.reportError(fmt.Errorf("transport: read: %w", err))
			}
			return
		}
		m.route(sid, msg)
	}
}

// route hands one inbound message to its session. Tags match exactly —
// a message can never leak into another session.
func (m *Mesh) route(sid SessionID, msg *core.Message) {
	m.mu.Lock()
	ms := m.sessions[sid]
	m.mu.Unlock()
	if ms == nil {
		m.reportError(fmt.Errorf("transport: dropping %s frame for unbound session %x", msg.Type, sid[:4]))
		return
	}
	ms.recv(msg)
}

func (m *Mesh) isClosed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Broadcast transmits one message to each listed member of a bound
// session, dialing (with retry) as needed; a stale cached connection is
// dropped and redialed once. The message is framed once and every
// recipient's connection queue shares that one immutable buffer, so a
// fan-out costs one encoding, not one per recipient. A recipient that
// cannot be reached does not hold up the rest; the errors are joined.
func (m *Mesh) Broadcast(sid SessionID, to []group.NodeID, msg *core.Message) error {
	m.mu.Lock()
	ms := m.sessions[sid]
	closed := m.closed
	addrs := make([]string, len(to))
	if ms != nil {
		for i, id := range to {
			addrs[i] = ms.roster[id] // under mu: AddPeer may extend the roster
		}
	}
	m.mu.Unlock()
	if closed {
		return errors.New("transport: mesh closed")
	}
	if ms == nil {
		return fmt.Errorf("transport: session %x not bound", sid[:4])
	}
	frame := encodeFrame(sid, msg)
	var errs []error
	for i, addr := range addrs {
		if addr == "" {
			errs = append(errs, fmt.Errorf("transport: no address for node %s", to[i]))
			continue
		}
		if err := m.enqueue(addr, frame); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// enqueue queues one frame on the connection to addr, redialing once if
// the cached connection has failed.
func (m *Mesh) enqueue(addr string, frame []byte) error {
	conn, err := m.conn(addr)
	if err != nil {
		return err
	}
	if err := conn.enqueue(frame); err != nil {
		m.dropConn(addr)
		conn, err2 := m.conn(addr)
		if err2 != nil {
			return err2
		}
		return conn.enqueue(frame)
	}
	return nil
}

func (m *Mesh) dropConn(addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.conns[addr]; ok {
		c.close()
		delete(m.conns, addr)
	}
}

func (m *Mesh) conn(addr string) (*lockedConn, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.conns[addr]; ok {
		return c, nil
	}
	// Dialing happens on the connection's own goroutine (with retries
	// for peers that have not started listening yet); frames enqueue
	// immediately and flush once connected. A member that died must not
	// stall the caller's engine dispatch loop — that would let one dead
	// client slow every round for everyone else.
	lc := newDialingConn(func() (net.Conn, error) {
		var conn net.Conn
		var err error
		for attempt := 0; attempt < 10; attempt++ {
			m.notePeer(addr, true, PeerDialing, "")
			conn, err = net.DialTimeout("tcp", addr, 2*time.Second)
			if err == nil {
				m.notePeer(addr, false, PeerConnected, "")
				return conn, nil
			}
			m.dialFailures.Add(1)
			m.notePeer(addr, false, PeerDialing, err.Error())
			time.Sleep(time.Duration(50*(attempt+1)) * time.Millisecond)
		}
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}, m.reportError, func(dropped int, err error) {
		m.framesDropped.Add(uint64(dropped))
		m.notePeer(addr, false, PeerFailed, err.Error())
	})
	m.conns[addr] = lc
	return lc, nil
}

func (m *Mesh) reportError(err error) {
	if m.onError != nil {
		m.onError(err)
	}
}

// lockedConn serializes frame writes through a dedicated writer
// goroutine: sends from different goroutines would otherwise
// interleave partial frames, and synchronous writes from within read
// handlers could form distributed write-deadlocks when every node's
// TCP buffers fill simultaneously. The connection may still be dialing
// when frames enqueue; they flush once the dial completes, and a
// failed dial drops the queue (reported) and marks the conn dead so
// the next send re-dials.
type lockedConn struct {
	mu      sync.Mutex
	cond    *sync.Cond
	c       net.Conn // nil while dialing
	queue   [][]byte
	closed  bool
	err     error
	onError func(error)
	// onFail observes terminal connection failures (dial exhausted or
	// write error) with the number of queued frames lost; may be nil.
	// Called with lc.mu held — implementations must only touch leaf
	// state (atomics, dedicated leaf locks).
	onFail func(dropped int, err error)
}

// newDialingConn creates a connection that dials in the background.
func newDialingConn(dial func() (net.Conn, error), onError func(error), onFail func(dropped int, err error)) *lockedConn {
	lc := &lockedConn{onError: onError, onFail: onFail}
	lc.cond = sync.NewCond(&lc.mu)
	go func() {
		conn, err := dial()
		lc.mu.Lock()
		if lc.closed {
			lc.mu.Unlock()
			if conn != nil {
				conn.Close()
			}
			return
		}
		if err != nil {
			lc.failLocked(err)
			lc.mu.Unlock()
			return
		}
		lc.c = conn
		lc.mu.Unlock()
		lc.writeLoop()
	}()
	return lc
}

// failLocked marks the connection dead, drops any queued frames, and
// reports the loss. Callers hold lc.mu.
func (lc *lockedConn) failLocked(err error) {
	dropped := len(lc.queue)
	lc.queue = nil
	lc.err = err
	lc.closed = true
	lc.cond.Broadcast()
	if lc.onFail != nil {
		lc.onFail(dropped, err)
	}
	if lc.onError != nil && dropped > 0 {
		lc.onError(fmt.Errorf("transport: %d frame(s) dropped: %w", dropped, err))
	}
}

func (lc *lockedConn) writeLoop() {
	for {
		lc.mu.Lock()
		for len(lc.queue) == 0 && !lc.closed {
			lc.cond.Wait()
		}
		if lc.closed {
			lc.mu.Unlock()
			return
		}
		frame := lc.queue[0]
		lc.queue = lc.queue[1:]
		lc.mu.Unlock()
		if _, err := lc.c.Write(frame); err != nil {
			// Frames still queued behind the failed write are lost with
			// the connection; report them like the dial-failure path so
			// operators see both loss modes.
			lc.mu.Lock()
			lc.failLocked(err)
			lc.mu.Unlock()
			lc.c.Close()
			return
		}
	}
}

// enqueue queues one already-framed message; it reports any write
// error observed so far so callers can re-dial.
func (lc *lockedConn) enqueue(frame []byte) error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.closed {
		if lc.err != nil {
			return lc.err
		}
		return errors.New("transport: connection closed")
	}
	lc.queue = append(lc.queue, frame)
	lc.cond.Signal()
	return nil
}

// close stops the writer goroutine and closes the socket (if the
// background dial has produced one).
func (lc *lockedConn) close() {
	lc.mu.Lock()
	lc.closed = true
	lc.cond.Broadcast()
	c := lc.c
	lc.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// encodeFrame serializes one message into its on-the-wire frame: one
// buffer of exactly the frame's size, the message encoded straight into
// it after the length word and session tag.
func encodeFrame(sid SessionID, msg *core.Message) []byte {
	const header = 4 + 32 // length word, session tag
	n := msg.EncodedLen()
	frame := make([]byte, header, header+n)
	binary.BigEndian.PutUint32(frame[:4], uint32(32+n)|frameTagged)
	copy(frame[4:], sid[:])
	return core.AppendMessage(frame, msg)
}

// WriteFrameSession writes one length-prefixed message tagged with sid.
func WriteFrameSession(w io.Writer, sid SessionID, msg *core.Message) error {
	_, err := w.Write(encodeFrame(sid, msg))
	return err
}

// ReadFrameSession reads one frame and returns its session ID and
// message; tagged is true whenever err is nil. A length word without
// the tag bit, or one too small or too large for a frame, is an error.
func ReadFrameSession(r io.Reader) (sid SessionID, tagged bool, msg *core.Message, err error) {
	var hdr [4]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return sid, false, nil, err
	}
	word := binary.BigEndian.Uint32(hdr[:])
	if word&frameTagged == 0 {
		return sid, false, nil, fmt.Errorf("transport: untagged frame (length word %#08x): every frame carries a session tag", word)
	}
	size := word &^ frameTagged
	if size <= 32 {
		return sid, false, nil, fmt.Errorf("transport: frame size %d too short for its session tag", size)
	}
	if size > maxFrame {
		return sid, false, nil, fmt.Errorf("transport: frame size %d out of range", size)
	}
	// The length word is unauthenticated (the session tag and signature
	// come after it), so it buys at most frameReadAhead of memory; past
	// that the buffer at most doubles per read, and what a peer can make
	// this node hold stays proportional to what it actually sent.
	body := make([]byte, min(int(size), frameReadAhead))
	if _, err = io.ReadFull(r, body); err != nil {
		return sid, false, nil, err
	}
	for len(body) < int(size) {
		have := len(body)
		more := min(int(size)-have, have)
		body = slices.Grow(body, more)[:have+more]
		if _, err = io.ReadFull(r, body[have:]); err != nil {
			return sid, false, nil, err
		}
	}
	msg, err = core.DecodeMessage(body[32:])
	if err != nil {
		return sid, false, nil, err
	}
	copy(sid[:], body[:32])
	return sid, true, msg, nil
}
