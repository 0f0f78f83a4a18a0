// Package dcnet implements the DC-net layer of Dissent: the
// deterministic slot schedule S(r, π(i), H) derived from a verifiable
// shuffle and prior round outputs (§3.3, §3.8), OAEP-like unpredictable
// slot payloads (§3.9), client and server ciphertext pads built from
// pairwise client/server secrets (§3.4), and per-bit stream tracing for
// the accusation protocol (§3.9).
//
// The package is purely computational — no I/O. internal/core drives it
// with the round protocol. A Schedule owns its pipeline position — the
// head round, the latest drain point and the queued directives of the
// rounds still in flight — so every member asks it one question per
// round, Layout(r), and composes and decodes round r at the same layout.
package dcnet

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"dissent/internal/crypto"
	"dissent/internal/wire"
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
	// Lag is the pipeline lag λ: the layout of round k excludes the
	// directives of the λ rounds before it, which is what lets λ+1 rounds
	// be in flight at once. The group policy's pipeline depth minus one;
	// every replica in a group uses the same lag.
	Lag int
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
	case c.Lag < 0:
		return errors.New("dcnet: Lag must not be negative")
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
	cfg Config
	// round is the head: the oldest round whose output — certified or
	// failed — has not been applied. drain is the first round after the
	// latest pipeline drain point (Drained), or head−λ once the ramp
	// from it is over, so replicas that drained at different rounds
	// longer ago than that hold equal state.
	round, drain uint64
	lens         []int // applied message-slot lengths, 0 = closed
	idle         []int // consecutive all-zero rounds per open slot; orders evictSilent

	perm []int // perm[position] = slot occupying that layout position

	// Pipelined rounds: with lag λ > 0, round k's layout incorporates
	// only the directives of rounds ≤ k−1−λ (all of them right after a
	// drain, see Layout), so a participant can compose round k's vector
	// before round k−1's output is known. Advance decodes
	// each round the moment it is applied, but the per-slot directives it
	// extracts are queued in pending (FIFO, ≤ λ rows, one per retired
	// round: a failed round's row is nil) and applied λ rounds later.
	// λ = 0 reproduces the serial semantics exactly.
	pending [][]slotDelta

	// memo is the last layout built (none while memo.Off is nil) and
	// memoRound the round it is for; every state change clears it. The
	// engines ask for the same round several times between two changes
	// (compose, decode, blame history).
	memo      Layout
	memoRound uint64
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
// slot order, an empty pipeline.
func NewSchedule(cfg Config) (*Schedule, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Schedule{
		cfg:  cfg,
		lens: make([]int, cfg.NumSlots),
		idle: make([]int, cfg.NumSlots),
	}
	s.perm = identityPerm(cfg.NumSlots)
	return s, nil
}

// Permutation returns a copy of the current layout permutation:
// element p is the slot whose message region is laid out p-th.
func (s *Schedule) Permutation() []int {
	return append([]int(nil), s.perm...)
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
	for i := n - 1; i > 0; i-- {
		j := int(crypto.Uintn(stream, uint32(i+1)))
		perm[i], perm[j] = perm[j], perm[i]
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
	s.memo = Layout{}
	// Roster changes build on a settled layout: the engines drain the
	// round pipeline before applying a certified roster update, so any
	// still-queued deltas belong to rounds that have already certified
	// and are due — apply them now.
	for _, d := range s.pending {
		s.applyDeltaTo(s.lens, s.idle, d, nil)
	}
	s.pending = s.pending[:0]
	old := s.cfg.NumSlots
	if extra > 0 {
		s.cfg.NumSlots += extra
		s.lens = append(s.lens, make([]int, extra)...)
		s.idle = append(s.idle, make([]int, extra)...)
	}
	if seed != nil {
		s.perm = PermFromSeed(seed, s.cfg.NumSlots)
		return
	}
	s.perm = append(s.perm, identityPerm(s.cfg.NumSlots)[old:]...)
}

// Config returns the schedule's configuration.
func (s *Schedule) Config() Config { return s.cfg }

// Round returns the head: the oldest round whose output has not been
// applied. Failed rounds count, so it is the engines' output head.
func (s *Schedule) Round() uint64 { return s.round }

// NumSlots returns the slot count.
func (s *Schedule) NumSlots() int { return s.cfg.NumSlots }

// reqBytes returns the size of the request-bit region, which opens
// every round's vector.
func (s *Schedule) reqBytes() int { return (s.cfg.NumSlots + 7) / 8 }

// Drained records a pipeline drain point at the head: every earlier
// round has been applied and none is in flight, so the head round is
// composed with every queued directive applied, the next with one
// withheld, and so on back up to λ. The engines call it when whatever
// drained the pipeline — the session start, a roster update, an
// accusation shuffle — lets rounds resume.
func (s *Schedule) Drained() { s.drain, s.memo = s.round, Layout{} }

// Layout is one round's cleartext vector layout: the request-bit region
// (one bit per slot, indexed by slot), then every open slot's message
// region in permutation order.
type Layout struct {
	Len  int   // total vector length in bytes
	Off  []int // Off[slot]: byte offset of the slot's message region
	Lens []int // Lens[slot]: its length, 0 when the slot is closed
}

// SlotRange returns slot i's message region (n is zero for a closed
// slot).
func (l Layout) SlotRange(i int) (off, n int) { return l.Off[i], l.Lens[i] }

// Layout returns the layout round r is composed and decoded at, for r
// from the head to head+λ: the applied slot lengths plus the queued
// directives of the rounds at or below max(r−λ−1, drain−1). Layout(head)
// is what Advance decodes; Layout(head+λ) holds every queued directive.
// Bounding the view this way, rather than consuming the whole queue,
// keeps compose and decode layouts equal through post-drain ramps
// however retirements interleave with window opens, and for a freshly
// welcomed joiner, whose restored queue holds directives beyond its
// first round's. The offsets come from one pass over the permutation.
// The returned slices are shared and must not be modified.
func (s *Schedule) Layout(r uint64) Layout {
	if s.memo.Off != nil && s.memoRound == r {
		return s.memo
	}
	n := s.cfg.NumSlots
	buf := make([]int, 2*n)
	l := Layout{Len: s.reqBytes(), Off: buf[:n:n], Lens: buf[n:]}
	copy(l.Lens, s.lens)
	if k := s.horizon(r); k > 0 {
		idle := slices.Clone(s.idle)
		for _, d := range s.pending[:k] {
			s.applyDeltaTo(l.Lens, idle, d, nil)
		}
	}
	for _, slot := range s.perm {
		l.Off[slot] = l.Len
		l.Len += l.Lens[slot]
	}
	s.memo, s.memoRound = l, r
	return l
}

// horizon returns how many of the queued directives round r's layout
// includes. The p queued rows belong to the rounds (head−1−p, head−1];
// those at or below max(r−λ−1, drain−1) are in: a drained pipeline
// restarts with one round in flight, so the first round after the drain
// point is composed with every directive applied, the next with one
// withheld, and so on up to the steady-state λ.
func (s *Schedule) horizon(r uint64) int {
	p := len(s.pending)
	h := int64(r) - int64(s.cfg.Lag) - 1
	if d := int64(s.drain) - 1; d > h {
		h = d
	}
	return min(max(p-int(int64(s.round)-1-h), 0), p)
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
	// Opened and Closed list slots that changed state in the applied
	// layout.
	Opened, Closed []int
	// ShuffleRequested is true when any open slot's shuffle-request
	// field was nonzero: the servers must run an accusation shuffle
	// before the next DC-net round (§3.9).
	ShuffleRequested bool
	// Payloads holds each open slot's decoded payload (nil entry for
	// closed or idle slots).
	Payloads []*SlotPayload
}

// Advance consumes the head round's certified cleartext, decodes every
// open slot at Layout(head) — exactly the layout the round was composed
// at — and moves the head past it. Undecodable slots (owner disrupted or
// garbled) keep their length and count as idle; this is deliberate: a
// disruptor must not be able to collapse the schedule. The extracted
// directives are queued behind those of the rounds before it. A
// cleartext of the wrong length moves nothing.
func (s *Schedule) Advance(cleartext []byte) (*RoundResult, error) {
	l := s.Layout(s.round)
	if len(cleartext) != l.Len {
		return nil, fmt.Errorf("dcnet: cleartext length %d, want %d", len(cleartext), l.Len)
	}
	res := &RoundResult{Payloads: make([]*SlotPayload, s.cfg.NumSlots)}
	delta := make([]slotDelta, s.cfg.NumSlots)
	for i, n := range l.Lens {
		if n == 0 {
			// Closed slot: a set request bit opens it.
			if s.ReqBit(cleartext, i) {
				delta[i] = slotDelta{op: dOpen}
			}
			continue
		}
		payload, idle, err := DecodeSlot(cleartext[l.Off[i] : l.Off[i]+n])
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
	s.retire(delta, res)
	return res, nil
}

// AdvanceFailed moves the head past a failed (uncertified) round: it
// contributes no directives, but takes its place in the delta queue so
// each later round still decodes at the layout it was composed at. With
// λ = 0 only the head moves.
func (s *Schedule) AdvanceFailed() { s.retire(nil, nil) }

// retire moves the head past one round whose directives are delta (nil
// for a failed round): it queues delta, applies the oldest row if the
// queue is then longer than λ, and advances the head. Rows a drain lets
// the head's layout include may stay queued meanwhile: Layout folds in
// whatever its horizon covers, so how far the applied state has caught
// up changes no layout.
func (s *Schedule) retire(delta []slotDelta, res *RoundResult) {
	s.memo = Layout{}
	s.pending = append(s.pending, delta)
	if len(s.pending) > s.cfg.Lag {
		s.popDelta(res)
	}
	s.round++
	if lag := uint64(s.cfg.Lag); s.round-s.drain > lag {
		s.drain = s.round - lag
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

// silentSlots is how many open slots may be silent — idle ≥ 1, their
// region all-zero since their last payload: an owner keeping its slot
// open with nothing to send, or one gone offline — at once. A record
// into an open slot rides the round it is composed into; one whose slot
// is closed sets the request bit first and arrives a chain later
// (ARCHITECTURE "Record latency"), so every silent slot kept open saves
// its owner's next record that chain. Bounding their number instead of
// their age caps what silence costs — at most silentSlots ×
// DefaultOpenLen bytes per vector, as a silent slot longer than
// DefaultOpenLen shrinks to it — whatever the group size, round rate or
// pipeline depth.
const silentSlots = 8

// applyDeltaTo applies one round's directives to a lens/idle pair in
// place, then closes the longest-silent slots beyond silentSlots
// (evictSilent). Guards make directives observational: a directive that
// no longer matches the slot's state (opened or closed in the lag gap)
// is dropped, identically on every replica. A failed round's nil row
// changes nothing. res may be nil (a layout view, a flush, a failed
// round's pop); when non-nil, Opened/Closed transitions are reported on
// it.
func (s *Schedule) applyDeltaTo(lens, idle []int, delta []slotDelta, res *RoundResult) {
	if delta == nil {
		return
	}
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
			// Saturate where AppendState's 32-bit field does, so a restored
			// replica orders evictions as its donor does.
			if idle[i] < math.MaxUint32 {
				idle[i]++
			}
			lens[i] = min(lens[i], s.cfg.DefaultOpenLen)
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
	s.evictSilent(lens, idle, res)
}

// evictSilent closes open slots while more than silentSlots are silent:
// the one silent longest first, the lowest slot index among equals.
func (s *Schedule) evictSilent(lens, idle []int, res *RoundResult) {
	n := 0
	for i, l := range lens {
		if l > 0 && idle[i] > 0 {
			n++
		}
	}
	if n <= silentSlots {
		return
	}
	silent := make([]int, 0, n)
	for i, l := range lens {
		if l > 0 && idle[i] > 0 {
			silent = append(silent, i)
		}
	}
	// Stable: equal idle counts keep ascending slot order.
	slices.SortStableFunc(silent, func(a, b int) int { return cmp.Compare(idle[b], idle[a]) })
	for _, i := range silent[:n-silentSlots] {
		lens[i], idle[i] = 0, 0
		if res != nil {
			res.Closed = append(res.Closed, i)
		}
	}
}

// Fields lays out the schedule's full replicated state: the head and
// drain point, slot count, (length, idle count, layout position
// occupant) per slot, then the queued pipeline deltas oldest first as
// (op, length) per slot. A queued failed round (nil delta) is written as
// an all-none row, which applies as the same no-op. These bytes are both
// the schedule part of every session snapshot and the preimage of
// Digest, so a snapshot and a digest can never describe different
// schedules. RestoreSchedule is the checked reader.
func (s *Schedule) Fields(c *wire.Codec) {
	c.U64(&s.round)
	c.U64(&s.drain)
	n := c.Len(len(s.lens), math.MaxInt32, 12)
	if len(s.lens) != n { // reading: the columns are allocated here
		s.lens, s.idle, s.perm = make([]int, n), make([]int, n), make([]int, n)
	}
	for i := range n {
		c.Int(&s.lens[i])
		c.Int(&s.idle[i])
		c.Int(&s.perm[i])
	}
	rows := c.Len(len(s.pending), math.MaxInt32, 5*n)
	for n > 0 && len(s.pending) < rows { // reading
		s.pending = append(s.pending, make([]slotDelta, n))
	}
	for _, row := range s.pending {
		for i := range n {
			d := &slotDelta{}
			if row != nil {
				d = &row[i]
			}
			c.U8((*byte)(&d.op))
			c.Int(&d.n)
		}
	}
}

// AppendState appends the schedule's replicated state (Fields) to buf.
func (s *Schedule) AppendState(buf []byte) []byte {
	return wire.Append(slices.Grow(buf, wire.Size(s)), s)
}

// Digest hashes the schedule's full replicated state (Fields).
// Replicas that processed the same certified outputs hold identical
// schedules and therefore equal digests; a client whose digest differs
// from its server's at the same replication point has silently diverged
// and must re-sync from a certified snapshot.
func (s *Schedule) Digest() [32]byte {
	var d [32]byte
	copy(d[:], crypto.Hash("dissent/sched-digest", wire.Encode(s)))
	return d
}

// RestoreSchedule rebuilds a schedule from its state (Fields) — the
// joiner- and restart-side inverse — under cfg's lag; the slot count
// comes from the state, not cfg. The state arrives from a peer or from
// disk: the codec checks every count against the input left before it
// allocates, and check validates the rest. A drain point past the head,
// or a queue longer than cfg.Lag (more rounds withheld than the group's
// pipeline holds), is refused.
func RestoreSchedule(cfg Config, state []byte) (*Schedule, error) {
	s := &Schedule{cfg: cfg}
	if err := wire.Decode(state, s); err != nil {
		return nil, fmt.Errorf("dcnet: schedule state: %w", err)
	}
	if err := s.check(); err != nil {
		return nil, err
	}
	return s, nil
}

// check validates a decoded state against the configuration it is
// restored under: the slot count it names, every slot length,
// permutation entry and queued directive, a drain point no later than
// the head, and a queue no longer than the lag.
func (s *Schedule) check() error {
	n := len(s.lens)
	s.cfg.NumSlots = n
	if err := s.cfg.Validate(); err != nil {
		return err
	}
	if s.drain > s.round {
		return fmt.Errorf("dcnet: schedule state drain point %d past its head %d", s.drain, s.round)
	}
	seen := make([]bool, n)
	for i, l := range s.lens {
		if l > s.cfg.MaxSlotLen {
			return fmt.Errorf("dcnet: schedule state slot length %d invalid", l)
		}
		slot := s.perm[i]
		if slot < 0 || slot >= n || seen[slot] {
			return errors.New("dcnet: schedule state permutation invalid")
		}
		seen[slot] = true
	}
	for _, row := range s.pending {
		for _, d := range row {
			if d.op > dSet {
				return fmt.Errorf("dcnet: schedule state op %d invalid", d.op)
			}
			if d.n > s.cfg.MaxSlotLen {
				return fmt.Errorf("dcnet: schedule state directive length %d invalid", d.n)
			}
		}
	}
	if len(s.pending) > s.cfg.Lag {
		return fmt.Errorf("dcnet: schedule state queues %d rows at lag %d", len(s.pending), s.cfg.Lag)
	}
	return nil
}
