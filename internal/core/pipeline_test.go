package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"dissent/internal/group"
)

// pipelineScript is a deterministic workload for the differential
// pipeline test: the same script replayed at depth 1 and at depths 2–4
// must produce byte-identical per-sender delivery streams.
type pipelineScript struct {
	// sends[r] lists (client construction index, payload) pairs injected
	// once every server has passed round r.
	sends map[uint64][]scriptSend
	// straggler[r] is 1+construction index of a client whose round-r
	// submission is delayed past the first window close (0 = none),
	// forcing an α-policy reopen.
	straggler map[uint64]int
	lastRound uint64
}

type scriptSend struct {
	client  int
	payload []byte
}

// genPipelineScript draws a workload: every client sends in round 1, so
// more slots fall silent than the schedule keeps open and the longest
// silent close, then bursty sends of varying sizes (a closed slot reopens
// through its request bit, large payloads fragment and grow slots) plus
// scripted stragglers that reopen submission windows.
func genPipelineScript(seed int64, clients int) *pipelineScript {
	rng := rand.New(rand.NewSource(seed))
	s := &pipelineScript{
		sends:     make(map[uint64][]scriptSend),
		straggler: make(map[uint64]int),
	}
	for ci := range clients {
		s.sends[1] = append(s.sends[1], scriptSend{client: ci, payload: fmt.Appendf(nil, "s%d-c%d-hello|", seed, ci)})
	}
	for r := uint64(1); r < 18; r += uint64(1 + rng.Intn(3)) {
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			ci := rng.Intn(clients)
			body := make([]byte, 1+rng.Intn(90))
			rng.Read(body)
			payload := append([]byte(fmt.Sprintf("s%d-c%d-r%d|", seed, ci, r)), body...)
			s.sends[r] = append(s.sends[r], scriptSend{client: ci, payload: payload})
		}
		if s.lastRound < r {
			s.lastRound = r
		}
	}
	for r := uint64(2); r < s.lastRound; r += uint64(2 + rng.Intn(5)) {
		s.straggler[r] = 1 + rng.Intn(clients)
	}
	return s
}

// runPipelineScript replays the script over a fresh group at the given
// pipeline depth and returns each client's concatenated delivered byte
// stream as observed by server 0, how many certified rounds took the
// speculative (commit rides the inventory) and the explicit commit path,
// and how many times a client found its silent slot closed.
func runPipelineScript(t *testing.T, script *pipelineScript, depth int) (streams map[int]string, speculated, explicit, evictions int) {
	t.Helper()
	// An owner announces NextLen 0 only for a slot grown past
	// DefaultOpenLen, so a slot no longer than that which its owner
	// composes closed in a later round was closed by the silent-slot
	// bound.
	type composed struct {
		round uint64
		n     int
	}
	last := map[int]composed{} // each client's latest composition
	f := newFixture(t, 2, pipelineClients, fixtureOpts{
		mutatePolicy: func(p *group.Policy) {
			// Alpha 1.0: a straggler cannot be excluded, so its delayed
			// submission reopens the window (attempt 2) instead of failing
			// or garbling the round — the serial and pipelined runs then
			// certify identical include-sets every round.
			p.Alpha = 1.0
			p.BeaconEpochRounds = 5 // several epoch boundaries + rotations
			p.DefaultOpenLen = pipelineOpenLen
			p.MaxSlotLen = 256
		},
		mutateOpts: func(o *Options) { o.PipelineDepth = depth },
		clientOpts: func(idx int, o *Options) {
			o.Interdict = &Interdict{Vector: func(info VectorInfo, _ []byte) {
				_, n := info.SlotRange(info.OwnSlot)
				if l, ok := last[idx]; !ok || info.Round > l.round {
					if ok && n == 0 && l.n > 0 && l.n <= pipelineOpenLen {
						evictions++
					}
					last[idx] = composed{info.Round, n}
				}
			}}
		},
	})
	clientIdx := make(map[group.NodeID]int, pipelineClients)
	for i, c := range f.clients {
		clientIdx[c.ID()] = i
	}
	f.h.Outbound = func(from group.NodeID, m *Message) (time.Duration, bool) {
		if m.Type == MsgClientSubmit {
			if ci, ok := clientIdx[from]; ok && script.straggler[m.Round] == ci+1 {
				// Past the first WindowMin close, well before the attempt
				// budget runs out.
				return 15 * time.Millisecond, false
			}
		}
		return 0, false
	}

	tap := tapWire(f)

	f.h.StartAll()
	for r := uint64(0); r <= script.lastRound; r++ {
		f.stepUntilRound(r, 400_000)
		for _, sd := range script.sends[r] {
			f.clients[sd.client].Send(sd.payload)
		}
	}
	// Drain: enough further rounds for queued and request-bit-gated data
	// to flush through reopened slots.
	f.stepUntilRound(script.lastRound+12, 800_000)

	if v := f.violations(); len(v) > 0 {
		t.Fatalf("depth %d: protocol violations: %v", depth, v)
	}
	// Every record has drained, so an open slot is a silent one: it stays
	// open at DefaultOpenLen at least, not at a tail fragment's length.
	for slot, n := range headLayout(&f.servers[0].node).Lens {
		if n > 0 && n < pipelineOpenLen {
			t.Errorf("depth %d: slot %d left open at %d B, below DefaultOpenLen %d", depth, slot, n, pipelineOpenLen)
		}
	}
	for r := uint64(0); r < f.servers[0].Round(); r++ {
		if tap.explicit(r) {
			explicit++
		} else {
			speculated++
		}
	}
	return f.senderStreams(), speculated, explicit, evictions
}

// pipelineClients is more senders than the schedule keeps silent slots
// open for, so the script's idle gaps close slots.
const (
	pipelineClients = 10
	pipelineOpenLen = 96 // the policy's DefaultOpenLen
)

// TestPipelineParityDifferential is the correctness proof for the round
// pipeline: for randomized workloads — bursty variable size submissions,
// silent slots closed by the eight-slot bound and reopened by request
// bits, straggler-induced α-reopens, epoch rotations, rounds whose commit
// rode the inventory next to rounds that ran the explicit exchange — the
// engine at depths 2, 3 and 4 must deliver byte-identical per-sender
// streams to the serial engine, and leave no silent slot open below
// DefaultOpenLen.
func TestPipelineParityDifferential(t *testing.T) {
	prop := func(seed int64) bool {
		script := genPipelineScript(seed, pipelineClients)
		serial, _, _, evictions := runPipelineScript(t, script, 1)
		ok := true
		// The workload must actually exercise the data plane.
		total := 0
		for _, s := range serial {
			total += len(s)
		}
		if total == 0 {
			t.Errorf("seed %d: serial run delivered nothing", seed)
			ok = false
		}
		if evictions == 0 {
			t.Errorf("seed %d: the serial run closed no silent slot", seed)
			ok = false
		}
		for depth := 2; depth <= 4; depth++ {
			pipelined, speculated, explicit, evictions := runPipelineScript(t, script, depth)
			if evictions == 0 {
				t.Errorf("seed %d: depth %d closed no silent slot", seed, depth)
				ok = false
			}
			// Both commit paths must run inside the one pipelined script: the
			// steady rounds speculate, the straggler reopens and epoch drains
			// do not.
			if speculated == 0 || explicit == 0 {
				t.Errorf("seed %d: depth %d took the speculative path in %d rounds and the explicit one in %d; want both exercised",
					seed, depth, speculated, explicit)
				ok = false
			}
			for ci, want := range serial {
				if got := pipelined[ci]; got != want {
					t.Errorf("seed %d client %d: depth-%d stream diverged\n serial:    %q\n pipelined: %q",
						seed, ci, depth, want, got)
					ok = false
				}
			}
			for ci := range pipelined {
				if _, dual := serial[ci]; !dual && len(pipelined[ci]) > 0 {
					t.Errorf("seed %d client %d: depth %d delivered data the serial run did not", seed, ci, depth)
					ok = false
				}
			}
		}
		return ok
	}
	cfg := &quick.Config{
		MaxCount: 3,
		Rand:     rand.New(rand.NewSource(20260807)),
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
