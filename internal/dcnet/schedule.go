// Package dcnet implements the DC-net layer of Dissent: the
// deterministic slot schedule S(r, π(i), H) derived from a verifiable
// shuffle and prior round outputs (§3.3, §3.8), OAEP-like unpredictable
// slot payloads (§3.9), client and server ciphertext pads built from
// pairwise client/server secrets (§3.4), and per-bit stream tracing for
// the accusation protocol (§3.9).
//
// The package is purely computational — no I/O. internal/core drives it
// with the round protocol.
package dcnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"dissent/internal/crypto"
)

// Config fixes the schedule parameters agreed at group creation.
type Config struct {
	// NumSlots is the number of pseudonym slots (one per client in the
	// shuffled schedule).
	NumSlots int
	// DefaultOpenLen is the slot length, in bytes, assigned when a
	// request bit opens a slot. Must be at least MinSlotLen.
	DefaultOpenLen int
	// MaxSlotLen caps a slot's self-requested length, bounding the
	// damage a malicious owner (or a disrupted length field) can do to
	// the round size.
	MaxSlotLen int
	// IdleCloseRounds is the silent-slot horizon in chains, a chain being
	// one round's submit, server hops and output: an open slot whose
	// region comes out all-zero — an owner keeping its slot open with
	// nothing to send, or one gone offline — closes after IdleCloseRounds
	// chains, which at pipeline lag λ are IdleCloseRounds × (λ+1)
	// consecutive such rounds (idleHorizon). The group policy sets it.
	IdleCloseRounds int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.NumSlots <= 0:
		return errors.New("dcnet: NumSlots must be positive")
	case c.DefaultOpenLen < MinSlotLen:
		return fmt.Errorf("dcnet: DefaultOpenLen %d below minimum %d", c.DefaultOpenLen, MinSlotLen)
	case c.MaxSlotLen < c.DefaultOpenLen:
		return errors.New("dcnet: MaxSlotLen below DefaultOpenLen")
	case c.IdleCloseRounds <= 0:
		return errors.New("dcnet: IdleCloseRounds must be positive")
	}
	return nil
}

// Schedule tracks the per-slot state that determines each round's
// cleartext layout. All nodes advance identical Schedule replicas from
// identical round outputs, so the layout never needs negotiation.
//
// The layout orders slot message regions by a permutation that Grow
// re-derives from shared randomness (the engines do so at every epoch
// boundary, from the beacon chain and the roster digest), so a slot's
// byte position in the round vector shifts unpredictably across epochs
// instead of being fixed for the session's lifetime.
type Schedule struct {
	cfg   Config
	round uint64
	lens  []int // current message-slot lengths, 0 = closed
	idle  []int // consecutive all-zero rounds per open slot

	perm []int // perm[position] = slot occupying that layout position
	pos  []int // pos[slot] = its layout position (inverse of perm)

	// Pipelined rounds: with lag λ > 0, the layout used for round k
	// incorporates only the deltas extracted from rounds ≤ k−1−λ, so a
	// participant can compose round k's vector before round k−1's
	// output is known. Advance still decodes each round's cleartext the
	// moment it certifies, but the per-slot directives it extracts are
	// queued in pending (FIFO, ≤ λ entries) and applied λ rounds later.
	// λ = 0 (the default) reproduces the serial semantics exactly.
	lag     int
	pending [][]slotDelta
}

// deltaOp classifies one slot's observational directive extracted from
// a decoded round.
type deltaOp uint8

const (
	dNone deltaOp = iota
	dOpen         // closed slot's request bit was set
	dIdle         // open slot produced idle output
	dHold         // open slot was garbled: hold length, reset idle
	dSet          // open slot set its next length (already clamped)
)

// slotDelta is one slot's directive. Directives are observational —
// extracted against the layout the round was decoded at — and guarded
// at application time (e.g. dOpen on an already-open slot is a no-op),
// so applying the queue in FIFO order is deterministic on every
// replica regardless of what happened in the lag gap.
type slotDelta struct {
	op deltaOp
	n  int // target length for dSet
}

// NewSchedule creates the round-0 schedule: all slots closed, identity
// slot order.
func NewSchedule(cfg Config) (*Schedule, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Schedule{
		cfg:  cfg,
		lens: make([]int, cfg.NumSlots),
		idle: make([]int, cfg.NumSlots),
	}
	s.setPerm(identityPerm(cfg.NumSlots))
	return s, nil
}

// Permutation returns a copy of the current layout permutation:
// element p is the slot whose message region is laid out p-th.
func (s *Schedule) Permutation() []int {
	return append([]int(nil), s.perm...)
}

// setPerm installs a permutation and its inverse.
func (s *Schedule) setPerm(perm []int) {
	s.perm = perm
	if len(s.pos) != len(perm) {
		s.pos = make([]int, len(perm))
	}
	for p, slot := range perm {
		s.pos[slot] = p
	}
}

// identityPerm returns [0, 1, ..., n-1].
func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// PermFromSeed derives a permutation of n slots from a shared seed by
// a Fisher–Yates shuffle over an AES-CTR stream, with rejection
// sampling so every permutation is equally likely. Identical seeds
// yield identical permutations on every node.
func PermFromSeed(seed []byte, n int) []int {
	perm := identityPerm(n)
	stream := crypto.NewAESPRNG(crypto.Hash("dissent/epoch-perm", seed))
	var buf [4]byte
	for i := n - 1; i > 0; i-- {
		// Uniform j in [0, i] by rejection on the top of the range.
		bound := uint32(i + 1)
		limit := ^uint32(0) - ^uint32(0)%bound
		for {
			stream.Read(buf[:])
			v := binary.BigEndian.Uint32(buf[:])
			if v < limit {
				j := int(v % bound)
				perm[i], perm[j] = perm[j], perm[i]
				break
			}
		}
	}
	return perm
}

// Grow appends extra closed slots (membership churn: one per newly
// admitted member; zero at a boundary that admits nobody) and re-derives
// the layout permutation over the slot set from seed (nil keeps existing
// slots in place and appends the new ones at the end of the layout).
// Every replica must call Grow with identical arguments at the same
// round boundary — the engines do so when applying each certified roster
// update, seeding from the beacon chain head and the roster digest, which
// makes it the epoch rotation too.
func (s *Schedule) Grow(extra int, seed []byte) {
	// Roster changes build on a settled layout: the engines drain the
	// round pipeline before applying a certified roster update, so any
	// still-queued deltas belong to rounds that have already certified
	// and are due — apply them now.
	s.FlushPipeline()
	old := s.cfg.NumSlots
	if extra > 0 {
		s.cfg.NumSlots += extra
		s.lens = append(s.lens, make([]int, extra)...)
		s.idle = append(s.idle, make([]int, extra)...)
	}
	if seed != nil {
		s.setPerm(PermFromSeed(seed, s.cfg.NumSlots))
		return
	}
	perm := append(append([]int(nil), s.perm...), identityPerm(s.cfg.NumSlots)[old:]...)
	s.setPerm(perm)
}

// Config returns the schedule's configuration.
func (s *Schedule) Config() Config { return s.cfg }

// Round returns the current round number.
func (s *Schedule) Round() uint64 { return s.round }

// NumSlots returns the slot count.
func (s *Schedule) NumSlots() int { return s.cfg.NumSlots }

// SlotLen returns slot i's current message length (0 when closed).
func (s *Schedule) SlotLen(i int) int { return s.lens[i] }

// reqBytes returns the size of the request-bit region.
func (s *Schedule) reqBytes() int { return (s.cfg.NumSlots + 7) / 8 }

// Len returns the total cleartext vector length for the current round.
func (s *Schedule) Len() int {
	n := s.reqBytes()
	for _, l := range s.lens {
		n += l
	}
	return n
}

// ReqBitRange returns the byte range holding the request bits.
func (s *Schedule) ReqBitRange() (off, n int) { return 0, s.reqBytes() }

// SlotRange returns the byte range of slot i's message region in the
// current round's cleartext vector. n is zero for closed slots.
// Message regions are laid out in permutation order; request bits stay
// indexed by slot.
func (s *Schedule) SlotRange(i int) (off, n int) {
	off = s.reqBytes()
	for p := 0; p < s.pos[i]; p++ {
		off += s.lens[s.perm[p]]
	}
	return off, s.lens[i]
}

// SetReqBit sets slot i's request bit in a cleartext-sized message
// vector (XOR semantics: writing 1 toggles the channel bit).
func (s *Schedule) SetReqBit(buf []byte, slot int, v bool) {
	if v {
		buf[slot/8] |= 1 << (uint(slot) % 8)
	}
}

// ReqBit reads slot i's request bit from a round's cleartext output.
func (s *Schedule) ReqBit(cleartext []byte, slot int) bool {
	return cleartext[slot/8]&(1<<(uint(slot)%8)) != 0
}

// RoundResult summarizes schedule transitions caused by one round's
// output.
type RoundResult struct {
	// Opened and Closed list slots that changed state for next round.
	Opened, Closed []int
	// ShuffleRequested is true when any open slot's shuffle-request
	// field was nonzero: the servers must run an accusation shuffle
	// before the next DC-net round (§3.9).
	ShuffleRequested bool
	// Payloads holds each open slot's decoded payload (nil entry for
	// closed or idle slots).
	Payloads []*SlotPayload
}

// Advance consumes round r's cleartext output, decodes every open
// slot, and moves the schedule to round r+1. Undecodable slots (owner
// disrupted or garbled) keep their length and count as idle; this is
// deliberate: a disruptor must not be able to collapse the schedule.
//
// The cleartext is always decoded against the applied layout (Len,
// SlotRange), which under pipelining is exactly the layout the round
// was composed at: the engines guarantee round r's vector is composed
// from the layout that excludes the deltas of the λ rounds still in
// flight, and those same λ deltas sit queued here when r certifies.
// The extracted directives are queued; the oldest queued delta is
// applied, moving the compose-side layout forward by one round.
func (s *Schedule) Advance(cleartext []byte) (*RoundResult, error) {
	if len(cleartext) != s.Len() {
		return nil, fmt.Errorf("dcnet: cleartext length %d, want %d", len(cleartext), s.Len())
	}
	res := &RoundResult{Payloads: make([]*SlotPayload, s.cfg.NumSlots)}
	delta := make([]slotDelta, s.cfg.NumSlots)
	for i := 0; i < s.cfg.NumSlots; i++ {
		off, n := s.SlotRange(i)
		if n == 0 {
			// Closed slot: a set request bit opens it next round.
			if s.ReqBit(cleartext, i) {
				delta[i] = slotDelta{op: dOpen}
			}
			continue
		}
		region := cleartext[off : off+n]
		payload, idle, err := DecodeSlot(region)
		switch {
		case idle:
			delta[i] = slotDelta{op: dIdle}
		case err != nil:
			// Garbled (possibly disrupted) slot: hold the length.
			delta[i] = slotDelta{op: dHold}
		default:
			res.Payloads[i] = payload
			if payload.ShuffleReq != 0 {
				res.ShuffleRequested = true
			}
			nl := payload.NextLen
			if nl != 0 && nl < MinSlotLen {
				nl = MinSlotLen
			}
			if nl > s.cfg.MaxSlotLen {
				nl = s.cfg.MaxSlotLen
			}
			delta[i] = slotDelta{op: dSet, n: nl}
		}
	}
	s.pending = append(s.pending, delta)
	if len(s.pending) > s.lag {
		s.popDelta(res)
	}
	s.round++
	return res, nil
}

// AdvanceFailed records a failed (uncertified) round: it contributes no
// directives, but the delta queue must stay aligned with round numbers
// so the decode layout for each later certified round is still the one
// it was composed at. A nil delta is queued and the oldest delta
// applied; the round counter does not move (failed rounds never reach
// Advance, so the counter only tracks certified outputs, exactly as in
// serial operation). With λ = 0 this is an exact no-op, so engines call
// it unconditionally on failed rounds.
func (s *Schedule) AdvanceFailed() {
	s.pending = append(s.pending, nil)
	if len(s.pending) > s.lag {
		s.popDelta(nil)
	}
}

// popDelta applies the oldest queued delta to the applied layout.
func (s *Schedule) popDelta(res *RoundResult) {
	d := s.pending[0]
	copy(s.pending, s.pending[1:])
	s.pending[len(s.pending)-1] = nil
	s.pending = s.pending[:len(s.pending)-1]
	s.applyDeltaTo(s.lens, s.idle, d, res)
}

// applyDeltaTo applies one round's directives to a lens/idle pair in
// place. Guards make directives observational: a directive that no
// longer matches the slot's state (opened or closed in the lag gap) is
// dropped, identically on every replica. res may be nil (ahead-view
// simulation, queue flush); when non-nil, Opened/Closed transitions are
// reported on it.
func (s *Schedule) applyDeltaTo(lens, idle []int, delta []slotDelta, res *RoundResult) {
	for i, d := range delta {
		switch d.op {
		case dOpen:
			if lens[i] != 0 {
				continue
			}
			lens[i] = s.cfg.DefaultOpenLen
			idle[i] = 0
			if res != nil {
				res.Opened = append(res.Opened, i)
			}
		case dIdle:
			if lens[i] == 0 {
				continue
			}
			idle[i]++
			if idle[i] >= s.idleHorizon() {
				lens[i] = 0
				idle[i] = 0
				if res != nil {
					res.Closed = append(res.Closed, i)
				}
			}
		case dHold:
			if lens[i] == 0 {
				continue
			}
			idle[i] = 0
		case dSet:
			if lens[i] == 0 {
				continue
			}
			idle[i] = 0
			lens[i] = d.n
			if d.n == 0 && res != nil {
				res.Closed = append(res.Closed, i)
			}
		}
	}
}

// idleHorizon is how many consecutive silent rounds close an open slot:
// IdleCloseRounds chains at the pipeline depth λ+1. A depth-d pipeline
// certifies d rounds per chain, so the scaled count keeps the horizon's
// wall time what it is at depth 1. Both factors are shared by every
// replica (the lag is a group-wide setting), so the threshold needs no
// state of its own.
func (s *Schedule) idleHorizon() int { return s.cfg.IdleCloseRounds * (s.lag + 1) }

// SyncPipeline applies queued deltas, oldest first, until at most
// min(λ, r − drain) remain. The engines call it immediately before
// decoding round r; drain is the protocol's latest drain point (the
// session's first round, an epoch-boundary round, the resume round
// after an accusation shuffle): a drained pipeline restarts with one
// round in flight, so the first post-drain round was composed with
// every delta applied, the next with one withheld, and so on up to the
// steady-state λ. Syncing to the per-round queue depth keeps the decode
// layout equal to the compose layout across drains; with a full
// pipeline and at λ = 0 it is a no-op.
func (s *Schedule) SyncPipeline(r, drain uint64) {
	q := s.lag
	if d := r - drain; d < uint64(q) {
		q = int(d)
	}
	for len(s.pending) > q {
		s.popDelta(nil)
	}
}

// Horizon returns how many of the queued deltas fall within the layout
// horizon of round r — the k to compose (and size) round r's vector
// with through the Ahead…UpTo views. Round r is composed, and later
// decoded, against the deltas of rounds ≤ max(drain−1, r−λ−1), where
// drain is the latest drain point as for SyncPipeline. head is the
// oldest round that has not retired: every round below it has queued
// its delta, so the p queued deltas belong to the rounds
// (head−1−p, head−1] and the oldest p − ((head−1) − horizon) of them
// are within the horizon. Bounding compose views this way, rather than
// consuming the whole queue, keeps compose and decode layouts equal
// through post-drain ramps however retirements interleave with window
// opens, and for a freshly welcomed joiner, whose restored queue holds
// deltas beyond its first round's horizon.
func (s *Schedule) Horizon(r, head, drain uint64) int {
	p := len(s.pending)
	h := int64(r) - int64(s.lag) - 1
	if d := int64(drain) - 1; d > h {
		h = d
	}
	return min(max(p-int(int64(head)-1-h), 0), p)
}

// SetLag sets the pipeline lag λ: the layout used to compose round k
// excludes the directives of the λ most recent certified rounds, which
// is what lets λ+1 rounds be in flight at once. A queue is never longer
// than the lag, so deltas queued beyond the new λ are applied first,
// oldest first: nothing on a fresh schedule, and a restored one keeps
// the donor's queue. Every replica in a group must use the same lag.
func (s *Schedule) SetLag(lag int) {
	s.lag = max(lag, 0)
	for len(s.pending) > s.lag {
		s.popDelta(nil)
	}
}

// FlushPipeline applies every queued delta immediately, bringing the
// applied layout up to the ahead view. The engines call it (via Grow)
// when the pipeline has drained at an epoch boundary, so roster and
// permutation changes always build on a fully settled layout.
func (s *Schedule) FlushPipeline() {
	for _, d := range s.pending {
		s.applyDeltaTo(s.lens, s.idle, d, nil)
	}
	s.pending = s.pending[:0]
}

// simulatePendingUpTo applies only the oldest k queued deltas: the
// compose-side layout at a bounded horizon. A freshly welcomed joiner
// composes its first round against fewer queued deltas than it holds
// (the donor captured them mid-pipeline), so compose views take an
// explicit horizon rather than always consuming the whole queue.
func (s *Schedule) simulatePendingUpTo(k int) (lens, idle []int) {
	lens = append([]int(nil), s.lens...)
	idle = append([]int(nil), s.idle...)
	if k > len(s.pending) {
		k = len(s.pending)
	}
	for _, d := range s.pending[:k] {
		s.applyDeltaTo(lens, idle, d, nil)
	}
	return lens, idle
}

// AheadLenUpTo returns the total cleartext vector length of a round
// composed at a bounded horizon: the applied layout plus the oldest k
// queued deltas. With an empty queue (always true at λ = 0) it equals
// Len.
func (s *Schedule) AheadLenUpTo(k int) int {
	if len(s.pending) == 0 || k <= 0 {
		return s.Len()
	}
	lens, _ := s.simulatePendingUpTo(k)
	n := s.reqBytes()
	for _, l := range lens {
		n += l
	}
	return n
}

// AheadSlotLen is SlotLen on the compose-side (ahead) view.
func (s *Schedule) AheadSlotLen(i int) int {
	return s.AheadSlotLenUpTo(i, len(s.pending))
}

// AheadSlotLenUpTo is AheadSlotLen at a bounded horizon.
func (s *Schedule) AheadSlotLenUpTo(i, k int) int {
	if len(s.pending) == 0 || k <= 0 {
		return s.lens[i]
	}
	lens, _ := s.simulatePendingUpTo(k)
	return lens[i]
}

// AheadSlotRangeUpTo is SlotRange on the compose-side view at a bounded
// horizon.
func (s *Schedule) AheadSlotRangeUpTo(i, k int) (off, n int) {
	if len(s.pending) == 0 || k <= 0 {
		return s.SlotRange(i)
	}
	lens, _ := s.simulatePendingUpTo(k)
	off = s.reqBytes()
	for p := 0; p < s.pos[i]; p++ {
		off += lens[s.perm[p]]
	}
	return off, lens[i]
}

// AheadSlotRangesUpTo is AheadSlotRangeUpTo for every slot at once: each
// slot's message region offset and length, indexed by slot.
func (s *Schedule) AheadSlotRangesUpTo(k int) (off, n []int) {
	lens := s.lens
	if len(s.pending) > 0 && k > 0 {
		lens, _ = s.simulatePendingUpTo(k)
	}
	off, n = make([]int, len(lens)), make([]int, len(lens))
	at := s.reqBytes()
	for _, slot := range s.perm {
		off[slot], n[slot] = at, lens[slot]
		at += lens[slot]
	}
	return off, n
}

// AppendState appends the schedule's full replicated state to buf:
// round counter, slot count, (length, idle count, layout position
// occupant) per slot, then the queued pipeline deltas oldest first as
// (op, length) per slot. A queued failed round (nil delta) is written as
// an all-none row, which applies as the same no-op. These bytes are both
// the schedule part of every session snapshot (RestoreSchedule is the
// inverse) and the preimage of Digest, so a snapshot and a digest can
// never describe different schedules.
func (s *Schedule) AppendState(buf []byte) []byte {
	buf = slices.Grow(buf, 16+len(s.lens)*(slotStateLen+deltaStateLen*len(s.pending)))
	buf = binary.BigEndian.AppendUint64(buf, s.round)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.lens)))
	for i := range s.lens {
		buf = binary.BigEndian.AppendUint32(buf, uint32(s.lens[i]))
		buf = binary.BigEndian.AppendUint32(buf, uint32(s.idle[i]))
		buf = binary.BigEndian.AppendUint32(buf, uint32(s.perm[i]))
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.pending)))
	for _, row := range s.pending {
		for i := range s.lens {
			var d slotDelta
			if row != nil {
				d = row[i]
			}
			buf = append(buf, byte(d.op))
			buf = binary.BigEndian.AppendUint32(buf, uint32(d.n))
		}
	}
	return buf
}

// Encoded sizes of AppendState's per-slot parts.
const (
	slotStateLen  = 12 // length, idle count, layout occupant
	deltaStateLen = 5  // op, length
)

// Digest hashes the schedule's full replicated state (AppendState).
// Replicas that processed the same certified outputs hold identical
// schedules and therefore equal digests; a client whose digest differs
// from its server's at the same replication point has silently diverged
// and must re-sync from a certified snapshot.
func (s *Schedule) Digest() [32]byte {
	var d [32]byte
	copy(d[:], crypto.Hash("dissent/sched-digest", s.AppendState(nil)))
	return d
}

// RestoreSchedule rebuilds a schedule from AppendState's bytes — the
// joiner- and restart-side inverse. The slot count comes from the state,
// not cfg. The state arrives from a peer or from disk: its shape is
// checked against its own length before anything is allocated, and every
// slot length, permutation entry and queued directive is validated. The
// restored schedule has lag 0; the caller sets the group's (SetLag keeps
// a queue no longer than the lag).
func RestoreSchedule(cfg Config, state []byte) (*Schedule, error) {
	if len(state) < 16 {
		return nil, errors.New("dcnet: schedule state truncated")
	}
	round := binary.BigEndian.Uint64(state)
	n := uint64(binary.BigEndian.Uint32(state[8:]))
	body := uint64(len(state) - 16)
	if n == 0 || n*slotStateLen > body {
		return nil, fmt.Errorf("dcnet: schedule state names %d slots in %d bytes", n, len(state))
	}
	queue := state[12+n*slotStateLen:]
	rows := uint64(binary.BigEndian.Uint32(queue))
	if rows*n*deltaStateLen != uint64(len(queue)-4) {
		return nil, fmt.Errorf("dcnet: schedule state queues %d rows of %d slots in %d bytes", rows, n, len(queue)-4)
	}
	cfg.NumSlots = int(n)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Schedule{cfg: cfg, round: round,
		lens: make([]int, n), idle: make([]int, n), perm: make([]int, n), pos: make([]int, n)}
	seen := make([]bool, n)
	for i, b := 0, state[12:]; i < int(n); i, b = i+1, b[slotStateLen:] {
		s.lens[i] = int(binary.BigEndian.Uint32(b))
		s.idle[i] = int(binary.BigEndian.Uint32(b[4:]))
		slot := binary.BigEndian.Uint32(b[8:])
		if s.lens[i] > cfg.MaxSlotLen {
			return nil, fmt.Errorf("dcnet: schedule state slot length %d invalid", s.lens[i])
		}
		if uint64(slot) >= n || seen[slot] {
			return nil, errors.New("dcnet: schedule state permutation invalid")
		}
		seen[slot] = true
		s.perm[i], s.pos[slot] = int(slot), i
	}
	for b := queue[4:]; len(b) > 0; {
		row := make([]slotDelta, n)
		for i := range row {
			op, dn := deltaOp(b[0]), int(binary.BigEndian.Uint32(b[1:]))
			if op > dSet {
				return nil, fmt.Errorf("dcnet: schedule state op %d invalid", op)
			}
			if dn > cfg.MaxSlotLen {
				return nil, fmt.Errorf("dcnet: schedule state directive length %d invalid", dn)
			}
			row[i], b = slotDelta{op: op, n: dn}, b[deltaStateLen:]
		}
		s.pending = append(s.pending, row)
	}
	return s, nil
}
