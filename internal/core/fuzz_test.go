package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"dissent/internal/group"
)

// fuzzState is the shared adversarial-op cursor: every message
// delivery across the whole group consumes one byte of the fuzz input
// to decide whether (and how) to redeliver an adversarial variant.
// Exhausted input means no further injections, so short inputs are
// mostly-clean runs and the fuzzer grows hostility incrementally.
type fuzzState struct {
	ops []byte
	cur int
}

func (st *fuzzState) next() byte {
	if st.cur >= len(st.ops) {
		return 0
	}
	b := st.ops[st.cur]
	st.cur++
	return b
}

// dispatchFuzzer wraps one node's engine and, steered by the op
// stream, redelivers adversarial variants of the messages the node
// legitimately receives: immediate duplicates, stale replays of past
// rounds' traffic, and forged copies with the round number shifted to
// r−1/r+1 (whose signatures no longer verify, and which cross the
// pipeline's round boundaries). The engine must reject or ignore every
// variant without a hard error, without wedging, and without
// disturbing its certified outputs.
type dispatchFuzzer struct {
	inner Engine
	st    *fuzzState
	hist  []*Message
}

func (d *dispatchFuzzer) Start(now time.Time) (*Output, error) { return d.inner.Start(now) }
func (d *dispatchFuzzer) Tick(now time.Time) (*Output, error)  { return d.inner.Tick(now) }
func (d *dispatchFuzzer) Check(m *Message) Checked             { return Checked{Msg: m} }
func (d *dispatchFuzzer) HandleChecked(now time.Time, c Checked) (*Output, error) {
	return d.Handle(now, c.Msg)
}

func (d *dispatchFuzzer) Handle(now time.Time, m *Message) (*Output, error) {
	out, err := d.inner.Handle(now, m)
	if err != nil {
		return out, err
	}
	var extra *Message
	switch d.st.next() & 7 {
	case 3: // immediate duplicate
		extra = m
	case 4, 7: // stale replay of an earlier delivery to this node
		if len(d.hist) > 0 {
			extra = d.hist[int(d.st.next())%len(d.hist)]
		}
	case 5: // forged copy shifted one round ahead (into the pipeline)
		mm := *m
		mm.Round++
		extra = &mm
	case 6: // forged copy shifted one round back
		if m.Round > 0 {
			mm := *m
			mm.Round--
			extra = &mm
		}
	}
	if extra != nil {
		o, err := d.inner.Handle(now, extra)
		if err != nil {
			return out, err
		}
		if out == nil {
			out = o
		} else {
			out.merge(o)
		}
	}
	if len(d.hist) < 64 {
		d.hist = append(d.hist, m)
	} else {
		d.hist[int(m.Round)%64] = m
	}
	return out, nil
}

// fuzzFixture builds the 2-server, 2-client group every dispatch-fuzz
// run (and the trace seeds) uses: at depths 2 to 4 injected cross-round
// traffic lands while that many rounds are genuinely in flight and most
// rounds reach window close behind the head, so they run the explicit
// commit exchange; at depth 1 every round is the head and its commit
// rides the inventory. At every depth epoch boundaries mid-run exercise
// the drain path too.
func fuzzFixture(tb testing.TB, depth int, wrap func(Engine) Engine) *fixture {
	return newFixture(tb, 2, 2, fixtureOpts{
		mutatePolicy: func(p *group.Policy) {
			p.Alpha = 1.0
			p.BeaconEpochRounds = 4
			p.DefaultOpenLen = 32
			p.MaxSlotLen = 256
		},
		mutateOpts: func(o *Options) { o.PipelineDepth = depth },
		wrapServer: func(_ int, s *Server) Engine { return wrap(s) },
		wrapClient: func(_ int, c *Client) Engine { return wrap(c) },
	})
}

// driveFuzzWorkload runs the standard workload against an
// already-wrapped fixture built at the given depth: payloads trickle in
// across several rounds (spanning an epoch boundary at round 4), then the
// run drains for two depths' worth of rounds — the last payload's request
// round and its data round — so every depth delivers the whole workload.
func driveFuzzWorkload(f *fixture, depth int) {
	f.h.StartAll()
	f.stepUntilRound(0, 400_000)
	for r := uint64(1); r <= 5; r++ {
		f.clients[int(r)%len(f.clients)].Send([]byte(fmt.Sprintf("fuzz-r%d-payload", r)))
		f.stepUntilRound(r, 400_000)
	}
	f.stepUntilRound(5+2*uint64(depth), 600_000)
}

// fuzzDepth maps the fuzz input's depth byte to a pipeline depth, 1 to 4.
func fuzzDepth(b uint8) int { return 1 + int(b%4) }

// traceRecorder taps each node's inbound dispatch to record one byte
// per delivered message (its type), turning a clean SimNet run into a
// realistic-length op stream for the fuzz seed corpus.
type traceRecorder struct {
	inner Engine
	trace *[]byte
}

func (r *traceRecorder) Start(now time.Time) (*Output, error) { return r.inner.Start(now) }
func (r *traceRecorder) Tick(now time.Time) (*Output, error)  { return r.inner.Tick(now) }
func (r *traceRecorder) Check(m *Message) Checked             { return Checked{Msg: m} }
func (r *traceRecorder) HandleChecked(now time.Time, c Checked) (*Output, error) {
	return r.Handle(now, c.Msg)
}
func (r *traceRecorder) Handle(now time.Time, m *Message) (*Output, error) {
	*r.trace = append(*r.trace, byte(m.Type))
	return r.inner.Handle(now, m)
}

// FuzzRoundDispatch is the pipelined round engine's message-hostility
// fuzz target: under interleaved, duplicated, and stale cross-round
// deliveries (r−1, r, r+1) the group must not panic, must not return a
// hard engine error (a remote peer could weaponize one as a DoS), must
// keep each node's certified-round stream strictly monotone, and must
// keep all servers' delivered cleartext byte-identical per (round,
// slot) — the observable form of cross-round state bleed.
func FuzzRoundDispatch(f *testing.F) {
	for depth := range uint8(4) {
		f.Add([]byte{}, depth)                                        // clean run
		f.Add(bytes.Repeat([]byte{3}, 48), depth)                     // duplicate storms
		f.Add(bytes.Repeat([]byte{4, 9}, 24), depth)                  // stale replays
		f.Add(bytes.Repeat([]byte{5, 6}, 24), depth)                  // round-shifted forgeries
		f.Add(bytes.Repeat([]byte{3, 4, 1, 5, 0, 6, 7, 2}, 8), depth) // mixed

		// Seed drawn from an actual SimNet trace: the message-type sequence
		// of a clean run, so the fuzzer starts from op streams whose length
		// and rhythm match real protocol traffic — with the commit merged
		// into the inventory wherever the run speculated.
		var trace []byte
		d := fuzzDepth(depth)
		tf := fuzzFixture(f, d, func(e Engine) Engine { return &traceRecorder{inner: e, trace: &trace} })
		driveFuzzWorkload(tf, d)
		f.Add(trace, depth)
	}

	f.Fuzz(func(t *testing.T, ops []byte, depth uint8) {
		st := &fuzzState{ops: ops}
		d := fuzzDepth(depth)
		fx := fuzzFixture(t, d, func(e Engine) Engine { return &dispatchFuzzer{inner: e, st: st} })
		driveFuzzWorkload(fx, d)

		// Liveness floor: adversarial redelivery must not wedge the
		// group (hard timeouts and resends bound every phase).
		for i, s := range fx.servers {
			if s.Round() < 3 {
				t.Fatalf("server %d wedged at round %d", i, s.Round())
			}
		}

		// Certified outputs stay strictly monotone per node: a stale or
		// cross-round message must never re-certify or reorder a round.
		lastDone := make(map[group.NodeID]uint64)
		for _, e := range fx.h.EventsOf(EventRoundComplete) {
			if prev, ok := lastDone[e.Node]; ok && e.Round <= prev {
				t.Fatalf("node %x certified round %d after %d", e.Node[:4], e.Round, prev)
			}
			lastDone[e.Node] = e.Round
		}

		// No cross-round state bleed: every server that delivered
		// (round, slot) must have delivered identical bytes. A stale
		// vector counted into the wrong round shows up here as a
		// cross-server divergence.
		type key struct {
			r    uint64
			slot int
		}
		serverIDs := make(map[group.NodeID]bool, len(fx.servers))
		for _, s := range fx.servers {
			serverIDs[s.ID()] = true
		}
		canon := make(map[key][]byte)
		for _, d := range fx.h.Deliveries {
			if !serverIDs[d.Node] {
				continue
			}
			k := key{d.Round, d.Slot}
			if want, ok := canon[k]; ok {
				if !bytes.Equal(want, d.Data) {
					t.Fatalf("round %d slot %d: servers delivered divergent cleartext", d.Round, d.Slot)
				}
			} else {
				canon[k] = d.Data
			}
		}

		// Attribution: the group is honest, so nobody may be charged with
		// anything but replay or flood — which count genuine frames the
		// fuzzer re-delivers. A forged copy is charged to no one.
		for _, e := range fx.h.EventsOf(EventMisbehavior) {
			if kind, _, _ := strings.Cut(e.Detail, ":"); kind != "replay" && kind != "flood" {
				t.Fatalf("honest member %x charged in round %d: %s", e.Culprit[:4], e.Round, e.Detail)
			}
		}
	})
}
