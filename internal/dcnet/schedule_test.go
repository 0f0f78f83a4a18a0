package dcnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"dissent/internal/crypto"
)

func mustSchedule(t testing.TB, cfg Config) *Schedule {
	t.Helper()
	s, err := NewSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// headLayout returns the layout the head round decodes at: with an empty
// delta queue, the applied layout.
func headLayout(s *Schedule) Layout { return s.Layout(s.Round()) }

// lagConfig is testConfig at pipeline lag λ.
func lagConfig(slots, lag int) Config {
	cfg := testConfig(slots)
	cfg.Lag = lag
	return cfg
}

func TestConfigValidate(t *testing.T) {
	good := testConfig(4)
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []Config{
		{NumSlots: 0, DefaultOpenLen: 64, MaxSlotLen: 128},
		{NumSlots: 4, DefaultOpenLen: 3, MaxSlotLen: 128},
		{NumSlots: 4, DefaultOpenLen: 64, MaxSlotLen: 32},
		{NumSlots: 4, DefaultOpenLen: 64, MaxSlotLen: 128, Lag: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestConfigValidateAcceptsMinimums(t *testing.T) {
	c := Config{NumSlots: 1, DefaultOpenLen: MinSlotLen, MaxSlotLen: MinSlotLen}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleInitialLayout(t *testing.T) {
	s := mustSchedule(t, testConfig(10))
	if headLayout(s).Len != 2 { // ceil(10/8) request bytes, all slots closed
		t.Errorf("initial length %d, want 2", headLayout(s).Len)
	}
	for i := 0; i < 10; i++ {
		if off, n := headLayout(s).SlotRange(i); off != 2 || n != 0 {
			t.Errorf("slot %d region (%d,%d) at start, want closed after the request bits", i, off, n)
		}
	}
}

func TestScheduleOpenViaRequestBit(t *testing.T) {
	s := mustSchedule(t, testConfig(4))
	buf := make([]byte, headLayout(s).Len)
	s.SetReqBit(buf, 2, true)
	res, err := s.Advance(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Opened) != 1 || res.Opened[0] != 2 {
		t.Fatalf("Opened = %v, want [2]", res.Opened)
	}
	if headLayout(s).Lens[2] != 64 {
		t.Errorf("slot 2 length %d, want 64", headLayout(s).Lens[2])
	}
	if s.Round() != 1 {
		t.Errorf("round %d, want 1", s.Round())
	}
	// Layout: reqBits(1) + slot2(64).
	if headLayout(s).Len != 1+64 {
		t.Errorf("round-1 length %d, want 65", headLayout(s).Len)
	}
	off, n := headLayout(s).SlotRange(2)
	if off != 1 || n != 64 {
		t.Errorf("slot 2 range (%d,%d), want (1,64)", off, n)
	}
}

func TestScheduleResizeAndClose(t *testing.T) {
	s := mustSchedule(t, testConfig(2))
	// Open slot 0.
	buf := make([]byte, headLayout(s).Len)
	s.SetReqBit(buf, 0, true)
	if _, err := s.Advance(buf); err != nil {
		t.Fatal(err)
	}
	// Send a payload asking for a bigger slot next round.
	buf = make([]byte, headLayout(s).Len)
	off, n := headLayout(s).SlotRange(0)
	if err := EncodeSlot(buf[off:off+n], SlotPayload{NextLen: 200, Data: []byte("x")}, nil); err != nil {
		t.Fatal(err)
	}
	res, err := s.Advance(buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Payloads[0] == nil || string(res.Payloads[0].Data) != "x" {
		t.Fatal("payload not decoded")
	}
	if headLayout(s).Lens[0] != 200 {
		t.Errorf("slot resized to %d, want 200", headLayout(s).Lens[0])
	}
	// Now close it with NextLen 0.
	buf = make([]byte, headLayout(s).Len)
	off, n = headLayout(s).SlotRange(0)
	if err := EncodeSlot(buf[off:off+n], SlotPayload{NextLen: 0}, nil); err != nil {
		t.Fatal(err)
	}
	res, err = s.Advance(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Closed) != 1 || res.Closed[0] != 0 {
		t.Errorf("Closed = %v, want [0]", res.Closed)
	}
	if headLayout(s).Lens[0] != 0 {
		t.Error("slot still open after close request")
	}
}

func TestScheduleClampsNextLen(t *testing.T) {
	cfg := testConfig(1)
	s := mustSchedule(t, cfg)
	buf := make([]byte, headLayout(s).Len)
	s.SetReqBit(buf, 0, true)
	s.Advance(buf)

	// Ask for far more than MaxSlotLen.
	buf = make([]byte, headLayout(s).Len)
	off, n := headLayout(s).SlotRange(0)
	EncodeSlot(buf[off:off+n], SlotPayload{NextLen: 1 << 20}, nil)
	s.Advance(buf)
	if headLayout(s).Lens[0] != cfg.MaxSlotLen {
		t.Errorf("slot length %d, want clamped to %d", headLayout(s).Lens[0], cfg.MaxSlotLen)
	}

	// Ask for a tiny nonzero length: clamped up to MinSlotLen.
	buf = make([]byte, headLayout(s).Len)
	off, n = headLayout(s).SlotRange(0)
	EncodeSlot(buf[off:off+n], SlotPayload{NextLen: 3}, nil)
	s.Advance(buf)
	if headLayout(s).Lens[0] != MinSlotLen {
		t.Errorf("slot length %d, want %d", headLayout(s).Lens[0], MinSlotLen)
	}
}

// slotFill writes an open slot's region for one round; a slot without
// one stays all-zero: a silent owner.
type slotFill func(t *testing.T, region []byte)

// fillPayload is an owner sending: a payload announcing the slot's own
// length.
func fillPayload(t *testing.T, region []byte) {
	if err := EncodeSlot(region, SlotPayload{NextLen: len(region), Data: []byte("x")}, nil); err != nil {
		t.Fatal(err)
	}
}

// fillGarbled is a disrupted region: nonzero, yet no payload decodes.
func fillGarbled(t *testing.T, region []byte) {
	region[0] = 1 // a nonzero seed; the masked DataLen's top byte is searched
	for v := 0; v < 256; v++ {
		region[SeedLen+5] = byte(v)
		if _, idle, err := DecodeSlot(region); err != nil && !idle {
			return
		}
	}
	t.Fatal("could not garble the region")
}

// advanceFills advances s one round at its head layout: each open slot
// in fills is written by its fill, every other open slot is silent, and
// the closed slots in reqs set their request bits.
func advanceFills(t *testing.T, s *Schedule, fills map[int]slotFill, reqs ...int) *RoundResult {
	t.Helper()
	l := headLayout(s)
	buf := make([]byte, l.Len)
	for i, fill := range fills {
		if off, n := l.SlotRange(i); n > 0 {
			fill(t, buf[off:off+n])
		}
	}
	for _, i := range reqs {
		s.SetReqBit(buf, i, true)
	}
	res, err := s.Advance(buf)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSilentSlotsLongestClosesFirst: up to silentSlots open slots stay
// open however long they are silent; the next slot to fall silent closes
// the one silent longest — by when it fell silent, not by its index.
func TestSilentSlotsLongestClosesFirst(t *testing.T) {
	const n = silentSlots + 1
	s := mustSchedule(t, testConfig(n))
	openAll(t, s)
	active := map[int]slotFill{}
	for i := range n {
		active[i] = fillPayload
	}
	step := func(what string, want []int) {
		t.Helper()
		if res := advanceFills(t, s, active); !slices.Equal(res.Closed, want) {
			t.Fatalf("%s: closed %v, want %v", what, res.Closed, want)
		}
	}
	for _, i := range []int{3, 0, 6, 1, 7, 2, 5, 4} { // slots 0…7 fall silent in turn
		delete(active, i)
		step(fmt.Sprintf("slot %d falls silent", i), nil)
	}
	for range 1000 {
		step("eight slots silent", nil)
	}
	delete(active, 8)
	step("a ninth slot falls silent", []int{3})
	for i, l := range headLayout(s).Lens {
		if (l == 0) != (i == 3) {
			t.Errorf("slot %d length %d after slot 3's close", i, l)
		}
	}
}

// TestSilentSlotsTieClosesLowestIndex: slots silent equally long close
// lowest slot index first, whatever their layout positions.
func TestSilentSlotsTieClosesLowestIndex(t *testing.T) {
	const n = silentSlots + 3
	s := mustSchedule(t, testConfig(n))
	openAll(t, s)
	s.Grow(0, []byte("a permuted layout"))
	if res := advanceFills(t, s, nil); !slices.Equal(res.Closed, []int{0, 1, 2}) {
		t.Fatalf("all %d slots fell silent at once: closed %v, want [0 1 2]", n, res.Closed)
	}
}

// TestSilentSlotShrinks: a silent slot longer than DefaultOpenLen shrinks
// to it and stays open, so silence never costs more than silentSlots ×
// DefaultOpenLen bytes per vector.
func TestSilentSlotShrinks(t *testing.T) {
	cfg := testConfig(1)
	s := mustSchedule(t, cfg)
	openAll(t, s)
	grow := func(t *testing.T, region []byte) {
		if err := EncodeSlot(region, SlotPayload{NextLen: 4 * cfg.DefaultOpenLen, Data: []byte("x")}, nil); err != nil {
			t.Fatal(err)
		}
	}
	advanceFills(t, s, map[int]slotFill{0: grow})
	if got := headLayout(s).Lens[0]; got != 4*cfg.DefaultOpenLen {
		t.Fatalf("slot length %d, want %d", got, 4*cfg.DefaultOpenLen)
	}
	for k := range 1000 {
		if res := advanceFills(t, s, nil); len(res.Closed) != 0 {
			t.Fatalf("silent round %d closed %v", k+1, res.Closed)
		}
		if got := headLayout(s).Lens[0]; got != cfg.DefaultOpenLen {
			t.Fatalf("silent round %d: slot length %d, want DefaultOpenLen %d", k+1, got, cfg.DefaultOpenLen)
		}
	}
}

// TestGarbledSlotCountsActive: a garbled region (dHold) is not silence —
// a disruptor cannot get a slot closed by flipping bits in it — so it
// neither counts toward silentSlots nor ages.
func TestGarbledSlotCountsActive(t *testing.T) {
	const n = silentSlots + 1
	s := mustSchedule(t, testConfig(n))
	openAll(t, s)
	for k := range 100 {
		if res := advanceFills(t, s, map[int]slotFill{0: fillGarbled}); len(res.Closed) != 0 {
			t.Fatalf("round %d: slot 0 garbled, eight silent: closed %v", k+1, res.Closed)
		}
	}
	// Slot 0 falls silent last: slot 1 has been silent longest.
	if res := advanceFills(t, s, nil); !slices.Equal(res.Closed, []int{1}) {
		t.Fatalf("slot 0 fell silent after 100 garbled rounds: closed %v, want [1]", res.Closed)
	}
}

// TestFailedRoundEvictsNothing: a failed round's row changes no slot,
// applied or in a layout view, even over more than silentSlots silent
// slots (a restored state from before the bound held).
func TestFailedRoundEvictsNothing(t *testing.T) {
	const n = silentSlots + 1
	for lag := 0; lag <= 3; lag++ {
		s := mustSchedule(t, lagConfig(n, lag))
		openAll(t, s)
		s.Grow(0, nil)
		state := s.AppendState(nil)
		for i := range n {
			binary.BigEndian.PutUint32(state[stateHeaderLen+i*slotStateLen+4:], 1) // idle 1
		}
		r, err := RestoreSchedule(s.Config(), state)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= lag; k++ {
			r.AdvanceFailed()
			for j := 0; j <= lag; j++ {
				if l := r.Layout(r.Round() + uint64(j)); slices.Contains(l.Lens, 0) {
					t.Fatalf("lag %d: after %d failed rounds, round head+%d's layout closed a slot: %v", lag, k+1, j, l.Lens)
				}
			}
		}
		if slices.Contains(r.lens, 0) {
			t.Fatalf("lag %d: failed rounds closed an applied slot: %v", lag, r.lens)
		}
		// The next applied row, all silent, restores the bound.
		advanceFills(t, r, nil)
		r.Grow(0, nil)
		if l := headLayout(r).Lens; l[0] != 0 || slices.Contains(l[1:], 0) {
			t.Fatalf("lag %d: an all-silent row over %d silent slots left %v, want slot 0 alone closed", lag, n, l)
		}
	}
}

// TestSilentEvictionLayoutViews drives a random workload that keeps
// evicting — more open slots than silentSlots, most of them silent each
// round, with payloads that grow slots, garbled regions, request bits
// and failed rounds — at pipeline lags 0–3. Every layout view of a
// round, from when it is first composable until it is decoded, equals
// the applied state it becomes; every close Advance reports is a slot
// open in the round's layout and closed in the next's; and a replica
// restored mid-run closes the same slots with equal digests.
func TestSilentEvictionLayoutViews(t *testing.T) {
	const n = silentSlots + 4
	grow := func(t *testing.T, region []byte) {
		if err := EncodeSlot(region, SlotPayload{NextLen: 2 * len(region), Data: []byte("x")}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for lag := 0; lag <= 3; lag++ {
		rng := rand.New(rand.NewSource(int64(lag) + 1))
		s := mustSchedule(t, lagConfig(n, lag))
		views := map[uint64][]int{}
		var replica *Schedule
		evictions := 0
		for k := 0; k < 400; k++ {
			head := s.Round()
			for r := head; r <= head+uint64(lag); r++ {
				l := s.Layout(r).Lens
				if v, ok := views[r]; !ok {
					views[r] = slices.Clone(l)
				} else if !slices.Equal(v, l) {
					t.Fatalf("lag %d: round %d's layout %v at head %d, %v when first composable", lag, r, l, head, v)
				}
			}
			if !slices.Equal(views[head], s.lens) {
				t.Fatalf("lag %d: round %d decodes at %v, applied state %v", lag, head, views[head], s.lens)
			}
			if k == 200 {
				var err error
				if replica, err = RestoreSchedule(s.Config(), s.AppendState(nil)); err != nil {
					t.Fatal(err)
				}
			}
			if rng.Intn(20) == 0 {
				s.AdvanceFailed()
				if replica != nil {
					replica.AdvanceFailed()
				}
				continue
			}
			fills := map[int]slotFill{}
			var reqs []int
			for i, l := range views[head] {
				switch p := rng.Intn(20); {
				case l == 0 && p < 4:
					reqs = append(reqs, i)
				case l > 0 && p < 3:
					fills[i] = fillPayload
				case l > 0 && p < 4:
					fills[i] = grow
				case l > 0 && p < 5:
					fills[i] = fillGarbled
				}
			}
			res := advanceFills(t, s, fills, reqs...)
			var closed []int
			for i := range n {
				if views[head][i] > 0 && s.lens[i] == 0 {
					closed = append(closed, i)
				}
			}
			if !slices.Equal(slices.Sorted(slices.Values(res.Closed)), closed) {
				t.Fatalf("lag %d round %d: reported closed %v, layouts closed %v", lag, head, res.Closed, closed)
			}
			evictions += len(res.Closed)
			if replica != nil {
				if got := advanceFills(t, replica, fills, reqs...); !slices.Equal(got.Closed, res.Closed) || replica.Digest() != s.Digest() {
					t.Fatalf("lag %d round %d: restored replica closed %v, donor %v (digests equal: %v)",
						lag, head, got.Closed, res.Closed, replica.Digest() == s.Digest())
				}
			}
		}
		if evictions == 0 {
			t.Errorf("lag %d: the workload never evicted a slot", lag)
		}
	}
}

func TestScheduleIdleResetOnActivity(t *testing.T) {
	const n = silentSlots + 1
	s := mustSchedule(t, testConfig(n))
	openAll(t, s)
	others := map[int]slotFill{}
	for i := 1; i < n; i++ {
		others[i] = fillPayload
	}
	// Slot 0 silent two rounds, then speaking while the others fall
	// silent: its count restarts, so when it falls silent too the slot
	// silent longest is slot 1, not slot 0.
	advanceFills(t, s, others)
	advanceFills(t, s, others)
	advanceFills(t, s, map[int]slotFill{0: fillPayload})
	if res := advanceFills(t, s, nil); !slices.Equal(res.Closed, []int{1}) {
		t.Errorf("closed %v, want [1]: slot 0's idle count not reset by activity", res.Closed)
	}
}

func TestScheduleShuffleRequestDetected(t *testing.T) {
	s := mustSchedule(t, testConfig(1))
	buf := make([]byte, headLayout(s).Len)
	s.SetReqBit(buf, 0, true)
	s.Advance(buf)

	buf = make([]byte, headLayout(s).Len)
	off, n := headLayout(s).SlotRange(0)
	EncodeSlot(buf[off:off+n], SlotPayload{NextLen: 64, ShuffleReq: 0xA7}, nil)
	res, err := s.Advance(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ShuffleRequested {
		t.Error("nonzero shuffle-request field not detected")
	}
}

func TestScheduleAdvanceWrongLength(t *testing.T) {
	s := mustSchedule(t, testConfig(4))
	if _, err := s.Advance(make([]byte, headLayout(s).Len+1)); err == nil {
		t.Error("wrong-length cleartext accepted")
	}
}

func TestScheduleDeterministicReplicas(t *testing.T) {
	// Two replicas fed identical cleartexts must stay identical — the
	// property that lets every node derive the layout independently.
	a := mustSchedule(t, testConfig(3))
	b := mustSchedule(t, testConfig(3))
	buf := make([]byte, headLayout(a).Len)
	a.SetReqBit(buf, 1, true)
	a.Advance(buf)
	b.Advance(buf)
	for r := 0; r < 5; r++ {
		if headLayout(a).Len != headLayout(b).Len {
			t.Fatal("replicas diverged in layout")
		}
		buf = make([]byte, headLayout(a).Len)
		off, n := headLayout(a).SlotRange(1)
		if n > 0 {
			EncodeSlot(buf[off:off+n], SlotPayload{NextLen: 64 + r}, nil)
		}
		a.Advance(buf)
		b.Advance(buf)
		for i := 0; i < 3; i++ {
			if headLayout(a).Lens[i] != headLayout(b).Lens[i] {
				t.Fatal("replicas diverged in slot lengths")
			}
		}
	}
}

func TestScheduleGarbledSlotHoldsLength(t *testing.T) {
	s := mustSchedule(t, testConfig(1))
	buf := make([]byte, headLayout(s).Len)
	s.SetReqBit(buf, 0, true)
	s.Advance(buf)
	want := headLayout(s).Lens[0]

	// Craft a garbled slot: nonzero seed, body decoding to an
	// impossible data length. Random garbage usually decodes to *some*
	// payload; to force the error path deterministically, encode a
	// valid slot then corrupt the masked DataLen bytes to 0xFFFF.
	buf = make([]byte, headLayout(s).Len)
	off, _ := headLayout(s).SlotRange(0)
	EncodeSlot(buf[off:off+want], SlotPayload{}, nil)
	// Flip DataLen (body bytes 5:7) to huge by XORing mask output: we
	// don't know the mask, so instead overwrite with values that decode
	// to dataLen > capacity with probability 1 by brute force: try all
	// 256*256 combos until DecodeSlot errors.
	forced := false
	region := buf[off : off+want]
	for hi := 0; hi < 256 && !forced; hi++ {
		for lo := 0; lo < 256 && !forced; lo++ {
			region[SeedLen+5] = byte(hi) | 0x80 // force a huge DataLen
			region[SeedLen+6] = byte(lo)
			if _, idle, err := DecodeSlot(region); err != nil && !idle {
				forced = true
			}
		}
	}
	if !forced {
		t.Skip("could not force a garbled slot")
	}
	res, err := s.Advance(buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Payloads[0] != nil {
		t.Error("garbled slot produced a payload")
	}
	if headLayout(s).Lens[0] != want {
		t.Errorf("garbled slot length changed: %d -> %d", want, headLayout(s).Lens[0])
	}
}

// --- Epoch rotation ----------------------------------------------------

func TestPermFromSeedDeterministicAndValid(t *testing.T) {
	seed := []byte("beacon value for epoch 3")
	a := PermFromSeed(seed, 17)
	b := PermFromSeed(seed, 17)
	if len(a) != 17 {
		t.Fatalf("perm length %d", len(a))
	}
	seen := make([]bool, 17)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different permutations")
		}
		if a[i] < 0 || a[i] >= 17 || seen[a[i]] {
			t.Fatalf("not a permutation: %v", a)
		}
		seen[a[i]] = true
	}
	c := PermFromSeed([]byte("a different beacon value"), 17)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced the same permutation")
	}
}

// openAll opens every slot and returns the post-open schedule.
func openAll(t testing.TB, s *Schedule) {
	t.Helper()
	buf := make([]byte, headLayout(s).Len)
	for i := 0; i < s.NumSlots(); i++ {
		s.SetReqBit(buf, i, true)
	}
	if _, err := s.Advance(buf); err != nil {
		t.Fatal(err)
	}
}

// TestEpochRotationChangesLayout: advancing never moves the permutation;
// an epoch boundary's Grow with a seed and no new slots re-derives it,
// keeping every slot's length and moving its offset.
func TestEpochRotationChangesLayout(t *testing.T) {
	const slots = 12 // 1/12! identity chance: assertions are stable
	cfg := testConfig(slots)
	s := mustSchedule(t, cfg)
	openAll(t, s)
	before := s.Permutation()
	offBefore := make([]int, slots)
	for i := range offBefore {
		offBefore[i], _ = headLayout(s).SlotRange(i)
	}
	for r := 0; r < 2; r++ {
		if _, err := s.Advance(make([]byte, headLayout(s).Len)); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(s.Permutation(), before) {
		t.Fatal("an advance moved the permutation")
	}
	lens := headLayout(s).Len
	s.Grow(0, []byte{3})
	if headLayout(s).Len != lens || s.NumSlots() != slots {
		t.Fatalf("rotation resized the layout: %d bytes over %d slots, want %d over %d", headLayout(s).Len, s.NumSlots(), lens, slots)
	}
	after := s.Permutation()
	changed := false
	for i := range after {
		if after[i] != before[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("permutation unchanged at epoch boundary (vanishingly unlikely)")
	}
	// Total layout length is permutation-invariant; offsets move.
	offChanged := false
	for i := range offBefore {
		if off, _ := headLayout(s).SlotRange(i); off != offBefore[i] {
			offChanged = true
		}
	}
	if !offChanged {
		t.Fatal("slot offsets unchanged after rotation")
	}
}

func TestEpochRotationNilSeedKeepsPerm(t *testing.T) {
	s := mustSchedule(t, testConfig(5))
	openAll(t, s)
	s.Grow(0, nil)
	perm := s.Permutation()
	for i, v := range perm {
		if v != i {
			t.Fatalf("identity permutation disturbed: %v", perm)
		}
	}
}

func TestPermutedLayoutRoundTripsPayloads(t *testing.T) {
	cfg := testConfig(4)
	s := mustSchedule(t, cfg)
	openAll(t, s)
	s.Grow(0, []byte("rot"))

	// Write a payload into slot 2's permuted range and advance: the
	// decoded payload must come back attributed to slot 2.
	buf := make([]byte, headLayout(s).Len)
	off, n := headLayout(s).SlotRange(2)
	payload := SlotPayload{Data: []byte("hello"), NextLen: n}
	if err := EncodeSlot(buf[off:off+n], payload, nil); err != nil {
		t.Fatal(err)
	}
	res, err := s.Advance(buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Payloads[2] == nil || string(res.Payloads[2].Data) != "hello" {
		t.Fatalf("slot 2 payload lost under permuted layout: %+v", res.Payloads)
	}
	for i, p := range res.Payloads {
		if i != 2 && p != nil {
			t.Fatalf("payload misattributed to slot %d", i)
		}
	}
}

func TestGrowAppendsSlotsAndReseeds(t *testing.T) {
	s := mustSchedule(t, testConfig(4))
	openAll(t, s)
	s.Grow(2, []byte("roster-seed"))
	if s.NumSlots() != 6 {
		t.Fatalf("NumSlots %d after Grow, want 6", s.NumSlots())
	}
	// New slots are closed at birth and carry request bits.
	for i := 4; i < 6; i++ {
		if headLayout(s).Lens[i] != 0 {
			t.Fatalf("new slot %d open at birth", i)
		}
	}
	// The permutation covers all six slots exactly once.
	perm := s.Permutation()
	seen := make(map[int]bool)
	for _, v := range perm {
		if v < 0 || v >= 6 || seen[v] {
			t.Fatalf("invalid permutation after Grow: %v", perm)
		}
		seen[v] = true
	}
	// Identical Grow calls on a replica converge to the same layout.
	r := mustSchedule(t, testConfig(4))
	openAll(t, r)
	r.Grow(2, []byte("roster-seed"))
	rp := r.Permutation()
	for i := range perm {
		if rp[i] != perm[i] {
			t.Fatalf("replica permutation diverged: %v vs %v", rp, perm)
		}
	}
	// A grown schedule still advances (new slots open via request bits).
	buf := make([]byte, headLayout(s).Len)
	s.SetReqBit(buf, 5, true)
	res, err := s.Advance(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Opened) != 1 || res.Opened[0] != 5 {
		t.Fatalf("request bit did not open the appended slot: %+v", res.Opened)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := mustSchedule(t, testConfig(5))
	openAll(t, s)
	s.Grow(0, []byte("x")) // rotated permutation
	state := s.AppendState(nil)
	r, err := RestoreSchedule(s.Config(), state)
	if err != nil {
		t.Fatal(err)
	}
	if r.Round() != s.Round() || headLayout(r).Len != headLayout(s).Len {
		t.Fatalf("restored round/len %d/%d, want %d/%d", r.Round(), headLayout(r).Len, s.Round(), headLayout(s).Len)
	}
	for i := 0; i < s.NumSlots(); i++ {
		so, sn := headLayout(s).SlotRange(i)
		ro, rn := headLayout(r).SlotRange(i)
		if so != ro || sn != rn {
			t.Fatalf("restored layout differs at slot %d", i)
		}
	}
	// Malformed snapshots are rejected.
	if _, err := RestoreSchedule(s.Config(), state[:len(state)-slotStateLen]); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	badPerm := bytes.Clone(state)
	copy(badPerm[stateHeaderLen+8:stateHeaderLen+12], badPerm[stateHeaderLen+slotStateLen+8:]) // slot 0's layout occupant := slot 1's
	if _, err := RestoreSchedule(s.Config(), badPerm); err == nil {
		t.Fatal("invalid permutation accepted")
	}
}

// TestRestoreScheduleRefusesPipelinePosition: a state whose queue is
// longer than the restoring lag, or whose drain point lies past its
// head, is refused rather than applied or clamped.
func TestRestoreScheduleRefusesPipelinePosition(t *testing.T) {
	s := queuedSchedule(t) // lag 2, two queued rows
	state := s.AppendState(nil)
	if _, err := RestoreSchedule(lagConfig(4, 1), state); err == nil {
		t.Error("a queue longer than the lag accepted")
	}
	bad := bytes.Clone(state)
	binary.BigEndian.PutUint64(bad[8:], s.Round()+1)
	if _, err := RestoreSchedule(s.Config(), bad); err == nil {
		t.Error("a drain point past the head accepted")
	}
}

// queuedSchedule returns a lag-2 schedule mid-pipeline: open slots, a
// rotated permutation, and a queue holding a directive row and a failed
// round's nil row.
func queuedSchedule(t testing.TB) *Schedule {
	s := mustSchedule(t, lagConfig(4, 2))
	openAll(t, s)
	s.Grow(0, []byte("x"))
	if _, err := s.Advance(make([]byte, headLayout(s).Len)); err != nil {
		t.Fatal(err)
	}
	s.AdvanceFailed()
	return s
}

// perSlotWalk is the layout computation Layout replaced, kept as its
// reference: the applied lengths plus the oldest k queued rows, then each
// slot's offset found by summing the regions laid out before it.
func perSlotWalk(s *Schedule, k int) (total int, off, n []int) {
	lens, idle := slices.Clone(s.lens), slices.Clone(s.idle)
	for _, d := range s.pending[:min(k, len(s.pending))] {
		s.applyDeltaTo(lens, idle, d, nil)
	}
	pos := make([]int, len(s.perm))
	for p, slot := range s.perm {
		pos[slot] = p
	}
	off, n = make([]int, len(lens)), make([]int, len(lens))
	for i := range lens {
		off[i] = s.reqBytes()
		for p := 0; p < pos[i]; p++ {
			off[i] += lens[s.perm[p]]
		}
		n[i] = lens[i]
	}
	total = s.reqBytes()
	for _, l := range lens {
		total += l
	}
	return total, off, n
}

// TestLayoutMatchesPerSlotWalk checks Layout against the per-slot walk
// on permuted layouts whose queue holds rows that open, resize and close
// slots and failed rounds' nil rows, at every round from the head to
// past head+λ, before and after a drain point: each round's layout is
// the walk at the horizon the reference arithmetic gives it.
func TestLayoutMatchesPerSlotWalk(t *testing.T) {
	const slots, lag = 12, 3
	s := mustSchedule(t, lagConfig(slots, lag))
	buf := make([]byte, headLayout(s).Len)
	for i := 0; i < slots; i += 2 {
		s.SetReqBit(buf, i, true)
	}
	if _, err := s.Advance(buf); err != nil {
		t.Fatal(err)
	}
	s.Grow(0, []byte("permuted"))
	check := func(step string) {
		t.Helper()
		for r := s.Round(); r <= s.Round()+lag+1; r++ {
			k := s.horizon(r)
			if ref := pendingAheadReference(len(s.pending), r, s.Round(), lag+1, s.drain); k != ref {
				t.Fatalf("%s round %d: horizon %d, reference %d", step, r, k, ref)
			}
			l := s.Layout(r)
			total, off, n := perSlotWalk(s, k)
			if l.Len != total || !slices.Equal(l.Off, off) || !slices.Equal(l.Lens, n) {
				t.Fatalf("%s round %d (horizon %d): Layout %+v, per-slot walk %d %v %v", step, r, k, l, total, off, n)
			}
		}
	}
	// Each step retires the head: request bits for the closed slots, a
	// failed round, a payload resizing every open slot (slot 0 closes),
	// another failed round, then silence.
	steps := []func(l Layout) []byte{
		func(l Layout) []byte {
			b := make([]byte, l.Len)
			for i := 1; i < slots; i += 2 {
				s.SetReqBit(b, i, true)
			}
			return b
		},
		nil,
		func(l Layout) []byte {
			b := make([]byte, l.Len)
			for i := range l.Lens {
				if off, n := l.SlotRange(i); n > 0 {
					next := 100 + i
					if i == 0 {
						next = 0
					}
					if err := EncodeSlot(b[off:off+n], SlotPayload{NextLen: next, Data: []byte("x")}, nil); err != nil {
						t.Fatal(err)
					}
				}
			}
			return b
		},
		nil,
		func(l Layout) []byte { return make([]byte, l.Len) },
	}
	check("initial")
	for i, step := range steps {
		if step == nil {
			s.AdvanceFailed()
		} else if _, err := s.Advance(step(headLayout(s))); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("step %d", i))
		if len(s.pending) > 0 {
			// As if the pipeline drained here: Layout only reads, so the
			// old drain point goes back afterwards. The head's layout is
			// built first, so a view Drained failed to drop would show.
			drain := s.drain
			s.Layout(s.Round())
			s.Drained()
			check(fmt.Sprintf("step %d drained", i))
			s.drain, s.memo = drain, Layout{}
		}
	}
}

// TestAppendStateIsDigestPreimage pins the one serialisation: the digest
// is the hash of exactly the bytes a snapshot carries, and a restored
// schedule reproduces both.
func TestAppendStateIsDigestPreimage(t *testing.T) {
	s := queuedSchedule(t)
	if len(s.pending) != 2 || s.pending[1] != nil {
		t.Fatalf("fixture queue = %v, want a directive row and a nil row", s.pending)
	}
	state := s.AppendState(nil)
	var want [32]byte
	copy(want[:], crypto.Hash("dissent/sched-digest", state))
	if s.Digest() != want {
		t.Fatal("Digest is not the hash of AppendState")
	}
	if got := s.AppendState([]byte("prefix")); !bytes.Equal(got, append([]byte("prefix"), state...)) {
		t.Fatal("AppendState does not append")
	}
	r, err := RestoreSchedule(s.Config(), state)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.AppendState(nil), state) || r.Digest() != want {
		t.Fatal("restored schedule re-encodes differently")
	}
	// The restored queue applies exactly as the donor's does.
	for i := 0; i < 3; i++ {
		s.AdvanceFailed()
		r.AdvanceFailed()
		if s.Digest() != r.Digest() {
			t.Fatalf("restored replica diverged %d pops in", i+1)
		}
	}
}

// FuzzRestoreSchedule feeds RestoreSchedule arbitrary state. What it
// accepts must re-encode byte for byte (so snapshot and digest agree on
// the restored replica too), and it must refuse a state whose declared
// shape its length cannot back before allocating for it, a drain point
// past the head, and a queue longer than the lag.
func FuzzRestoreSchedule(f *testing.F) {
	donor := queuedSchedule(f)
	cfg := donor.Config() // lag 2
	good := donor.AppendState(nil)
	n := 4
	queue := stateHeaderLen + n*slotStateLen
	perm := stateHeaderLen + 8 // slot 0's layout occupant
	mutate := func(fn func(b []byte) []byte) { f.Add(fn(bytes.Clone(good))) }
	f.Add(good)
	f.Add(mustSchedule(f, testConfig(1)).AppendState(nil))
	mutate(func(b []byte) []byte { return b[:len(b)-deltaStateLen] })                           // shape mismatch
	mutate(func(b []byte) []byte { copy(b[perm:perm+4], b[perm+slotStateLen:]); return b })     // duplicate permutation entry
	mutate(func(b []byte) []byte { binary.BigEndian.PutUint32(b[perm:], uint32(n)); return b }) // out-of-range entry
	mutate(func(b []byte) []byte { b[queue+4] = byte(dSet) + 1; return b })                     // op outside dNone…dSet
	mutate(func(b []byte) []byte {
		binary.BigEndian.PutUint32(b[queue+4+1:], uint32(cfg.MaxSlotLen)+1) // n > MaxSlotLen
		return b
	})
	mutate(func(b []byte) []byte { binary.BigEndian.PutUint32(b[16:], 1<<31); return b })                       // absurd slot count
	mutate(func(b []byte) []byte { binary.BigEndian.PutUint32(b[queue:], 1<<31); return b })                    // absurd row count
	mutate(func(b []byte) []byte { binary.BigEndian.PutUint32(b[16:], 0); return b[:stateHeaderLen+4] })        // no slots
	mutate(func(b []byte) []byte { return b[:queue+2] })                                                        // truncation
	mutate(func(b []byte) []byte { return b[:7] })                                                              // truncation inside the header
	mutate(func(b []byte) []byte { return append(b, 0) })                                                       // one trailing byte
	mutate(func(b []byte) []byte { binary.BigEndian.PutUint64(b[8:], binary.BigEndian.Uint64(b)+1); return b }) // drain point past the head
	mutate(func(b []byte) []byte {                                                                              // a third queued row at lag 2
		binary.BigEndian.PutUint32(b[queue:], 3)
		return append(b, make([]byte, n*deltaStateLen)...)
	})
	f.Fuzz(func(t *testing.T, state []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := RestoreSchedule(cfg, state)
		runtime.ReadMemStats(&after)
		// Restored state costs ~3 bytes per input byte; the slack absorbs
		// whatever else the process allocated meanwhile.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8*uint64(len(state))+1<<20 {
			t.Fatalf("RestoreSchedule allocated %d bytes for a %d-byte state", grew, len(state))
		}
		if err != nil {
			return
		}
		if slots, rows := s.NumSlots(), len(s.pending); stateHeaderLen+4+slots*(slotStateLen+rows*deltaStateLen) != len(state) {
			t.Fatalf("accepted %d slots and %d rows from %d bytes", slots, rows, len(state))
		}
		if !bytes.Equal(s.AppendState(nil), state) {
			t.Fatal("accepted state re-encodes differently")
		}
		var want [32]byte
		copy(want[:], crypto.Hash("dissent/sched-digest", state))
		if s.Digest() != want {
			t.Fatal("accepted state's digest is not its hash")
		}
	})
}

// pendingAheadReference is the arithmetic core.Server.pendingAhead and
// core.Client.pendingAhead each carried before it moved into the
// schedule (Layout), kept here verbatim as the reference: p queued
// deltas, head the oldest unretired round, depth = λ+1.
func pendingAheadReference(p int, r, head uint64, depth int, drain uint64) int {
	if p == 0 {
		return 0
	}
	a := int64(head) - 1
	h := int64(r) - int64(depth)
	if d := int64(drain) - 1; d > h {
		h = d
	}
	k := p - int(a-h)
	if k < 0 {
		k = 0
	}
	if k > p {
		k = p
	}
	return k
}

// TestHorizonTable pins how many queued deltas Layout includes on
// hand-derived rows — steady state, the ramp after a drain, a joiner's
// restored queue, and the clamps — and on each against the arithmetic
// it replaced.
func TestHorizonTable(t *testing.T) {
	rows := []struct {
		name           string
		depth, queued  int
		r, head, drain uint64
		want           int
	}{
		{"depth 1 never queues", 1, 0, 10, 10, 0, 0},
		{"depth 2, only round in flight", 2, 1, 10, 10, 0, 0},
		{"depth 2, pipeline full", 2, 1, 11, 10, 0, 1},
		{"depth 2, first round after a drain", 2, 1, 10, 10, 10, 1},
		{"depth 3, only round in flight", 3, 2, 10, 10, 0, 0},
		{"depth 3, two in flight", 3, 2, 11, 10, 0, 1},
		{"depth 3, pipeline full", 3, 2, 12, 10, 0, 2},
		{"depth 3, first round after a drain", 3, 2, 10, 10, 10, 2},
		{"depth 3, ramp: drain round retired, next opens alone", 3, 1, 11, 11, 10, 0},
		{"depth 3, ramp: second round opens beside the first", 3, 2, 11, 10, 10, 2},
		{"depth 3, ramp: third round, the drain round's delta withheld", 3, 1, 12, 11, 10, 0},
		{"depth 3, ramp over: pipeline full again", 3, 2, 13, 12, 10, 1},
		{"depth 3, joiner's first round", 3, 2, 20, 20, 4, 0},
		{"depth 3, joiner's second round", 3, 2, 21, 20, 4, 1},
		{"depth 3, joiner welcomed on the ramp", 3, 1, 11, 11, 10, 0},
		{"clamped above", 3, 2, 30, 20, 0, 2},
		{"clamped below", 3, 2, 10, 20, 0, 0},
	}
	for _, row := range rows {
		s := mustSchedule(t, lagConfig(4, row.depth-1))
		for i := 0; i < row.queued; i++ {
			s.AdvanceFailed()
		}
		if len(s.pending) != row.queued {
			t.Fatalf("%s: %d deltas queued, want %d", row.name, len(s.pending), row.queued)
		}
		s.round, s.drain = row.head, row.drain
		if got := s.horizon(row.r); got != row.want {
			t.Errorf("%s: horizon(%d) at head %d, drain %d = %d, want %d", row.name, row.r, row.head, row.drain, got, row.want)
		}
		if ref := pendingAheadReference(row.queued, row.r, row.head, row.depth, row.drain); ref != row.want {
			t.Errorf("%s: reference arithmetic gives %d, want %d", row.name, ref, row.want)
		}
	}
}

// pipelineSim drives a Schedule the way the engines do: rounds open in
// order with at most depth in flight, each pinning its vector length
// from Layout; rounds retire in order through Advance. Every retired
// round opens one more slot, so the layout changes each round and a
// wrong horizon shows as a compose length that differs from the decode
// length.
type pipelineSim struct {
	t      *testing.T
	s      *Schedule
	depth  int
	drain  uint64
	head   uint64         // oldest unretired round
	next   uint64         // next round to open
	pinned map[uint64]int // round -> vector length pinned at open
}

// run executes a script: 'o' opens a window if the pipeline has room,
// 'r' retires the head if a round is in flight, 'D' records a drain
// point (the pipeline must be empty).
func (p *pipelineSim) run(script string) {
	p.t.Helper()
	for _, op := range script {
		switch {
		case op == 'o' && p.next-p.head < uint64(p.depth):
			k := p.s.horizon(p.next)
			if want := pendingAheadReference(len(p.s.pending), p.next, p.head, p.depth, p.drain); k != want {
				p.t.Fatalf("depth %d round %d (head %d, drain %d, %d queued): horizon %d, reference %d",
					p.depth, p.next, p.head, p.drain, len(p.s.pending), k, want)
			}
			n := p.s.Layout(p.next).Len
			if pinned, seen := p.pinned[p.next]; seen && n != pinned {
				p.t.Fatalf("depth %d round %d: replica composes at length %d, donor at %d",
					p.depth, p.next, n, pinned)
			}
			p.pinned[p.next] = n
			p.next++
		case op == 'r' && p.head < p.next:
			if n := p.s.Layout(p.head).Len; n != p.pinned[p.head] {
				p.t.Fatalf("depth %d round %d: composed at length %d, decoded at %d",
					p.depth, p.head, p.pinned[p.head], n)
			}
			buf := make([]byte, p.pinned[p.head])
			p.s.SetReqBit(buf, int(p.head)%p.s.NumSlots(), true)
			if _, err := p.s.Advance(buf); err != nil {
				p.t.Fatal(err)
			}
			p.head++
			if p.s.Round() != p.head {
				p.t.Fatalf("depth %d: schedule head %d after retiring round %d", p.depth, p.s.Round(), p.head-1)
			}
		case op == 'D':
			if p.head != p.next {
				p.t.Fatalf("drain point with rounds %d..%d in flight", p.head, p.next)
			}
			p.s.Drained()
			p.drain = p.next
		}
	}
}

// TestHorizonThroughDrainRampAndWelcome runs Schedule.Layout through
// what the engines put it through, at depths 1 to 3: the pipeline
// fills, runs full, runs with retirements outpacing window opens (the
// case a whole-queue view composes wrongly), drains, and ramps back up
// from the new drain point; then a joiner restores the donor's replica
// mid-pipeline and keeps pace. At every window open the horizon equals
// the arithmetic it replaced, and every round is decoded at the length
// it was composed at — on the joiner too, including the rounds the donor
// already had in flight.
func TestHorizonThroughDrainRampAndWelcome(t *testing.T) {
	for depth := 1; depth <= 3; depth++ {
		s := mustSchedule(t, lagConfig(40, depth-1))
		p := &pipelineSim{t: t, s: s, depth: depth, pinned: map[uint64]int{}}
		p.run("ooo" + "rororo" + "rroo" + "rrroo" + "rrr" + "D" + "o" + "ro" + "oo" + "rroo" + "ro")
		if p.drain == 0 || p.head == p.next && depth > 1 {
			t.Fatalf("depth %d: script ended at head %d, next %d, drain %d", depth, p.head, p.next, p.drain)
		}

		j, err := RestoreSchedule(s.Config(), s.AppendState(nil))
		if err != nil {
			t.Fatal(err)
		}
		// The joiner starts at the donor's head with nothing in flight, and
		// composes the donor's in-flight rounds itself: run checks each
		// against the length the donor pinned.
		jp := &pipelineSim{t: t, s: j, depth: depth, drain: p.drain, head: p.head, next: p.head, pinned: p.pinned}
		for jp.next < p.next {
			jp.run("o")
		}
		for _, step := range []string{"r", "o", "r", "r", "o", "o", "r", "o"} {
			p.run(step)
			jp.run(step)
			if s.Digest() != j.Digest() {
				t.Fatalf("depth %d: joiner's replica diverged from the donor's at head %d", depth, p.head)
			}
		}
	}
}
