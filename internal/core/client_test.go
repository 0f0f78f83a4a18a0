package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"dissent/internal/dcnet"
	"dissent/internal/group"
)

// composedSlot is what a client put into one round's vector for its own
// slot: the request bit and the slot region (empty while closed).
type composedSlot struct {
	req    bool
	region []byte
}

// TestClientKeepsSmallSlotOpen pins the client half of the silent-slot
// rule at depths 1 and 2: a record that fits announces the slot's own
// length, so the slot stays open; the rounds after it leave the region
// all-zero; with fewer silent slots than the schedule keeps open, a
// record queued after 50 silent rounds rides the very next composed
// round with no request bit set in between; a backlog that grew
// the slot past DefaultOpenLen closes it once drained; and a witness keeps
// the slot open and non-silent, to carry its shuffle request.
func TestClientKeepsSmallSlotOpen(t *testing.T) {
	for _, depth := range []int{1, 2} {
		t.Run(fmt.Sprintf("depth-%d", depth), func(t *testing.T) {
			sent := map[uint64]composedSlot{}
			f := newFixture(t, 2, 3, fixtureOpts{
				mutatePolicy: func(p *group.Policy) { p.BeaconEpochRounds = 0 },
				mutateOpts:   func(o *Options) { o.PipelineDepth = depth },
				clientOpts: func(idx int, o *Options) {
					if idx != 0 {
						return
					}
					o.Interdict = &Interdict{Vector: func(info VectorInfo, vec []byte) {
						off, n := info.SlotRange(info.OwnSlot)
						sent[info.Round] = composedSlot{
							req:    vec[info.OwnSlot/8]&(1<<(info.OwnSlot%8)) != 0,
							region: bytes.Clone(vec[off : off+n]),
						}
					}}
				},
			})
			c, srv := f.clients[0], f.servers[0]
			open := f.def.Policy.DefaultOpenLen
			const silent = 50 // rounds the slot stays silent between records
			nextRound := func() { f.stepUntilRound(srv.Round(), 400_000) }
			// slotData returns what server 0 decoded from c's slot, by round.
			slotData := func() map[uint64][]byte {
				got := map[uint64][]byte{}
				for _, d := range f.h.Deliveries {
					if d.Node == srv.ID() && d.Slot == c.Slot() {
						got[d.Round] = append(got[d.Round], d.Data...)
					}
				}
				return got
			}
			// deliver queues data and steps until server 0 has decoded it
			// whole from one round, which it returns.
			deliver := func(data []byte) uint64 {
				t.Helper()
				c.Send(data)
				for range 4 * silent {
					for r, got := range slotData() {
						if bytes.Equal(got, data) {
							return r
						}
					}
					nextRound()
				}
				t.Fatalf("%q never delivered; violations: %v", data, f.violations())
				return 0
			}
			decode := func(r uint64) *dcnet.SlotPayload {
				t.Helper()
				p, idle, err := dcnet.DecodeSlot(sent[r].region)
				if err != nil || idle {
					t.Fatalf("round %d: our region decodes idle=%v err=%v", r, idle, err)
				}
				return p
			}
			f.h.StartAll()
			f.stepUntilRound(2, 400_000)

			// A record that fits keeps the slot open at its own length.
			r1 := deliver([]byte("a small record"))
			if p := decode(r1); p.NextLen != len(sent[r1].region) || p.NextLen != open {
				t.Errorf("round %d: NextLen %d for a %d-byte slot, want the slot's own length %d",
					r1, p.NextLen, len(sent[r1].region), open)
			}

			// The slot stays open and silent; the next record rides the next
			// composed round with no request round.
			for range silent {
				nextRound()
			}
			next := c.Round()
			if r2 := deliver([]byte("the next record")); r2 != next {
				t.Errorf("a record queued after %d silent rounds rode round %d, want the next composed round %d", silent, r2, next)
			}
			for r := r1; r <= next; r++ {
				s, ok := sent[r]
				switch {
				case !ok:
					t.Errorf("round %d: nothing composed", r)
				case s.req:
					t.Errorf("round %d: request bit set while the slot was open", r)
				case len(s.region) != open:
					t.Errorf("round %d: slot length %d, want %d", r, len(s.region), open)
				case r > r1 && r < next && !bytes.Equal(s.region, make([]byte, open)):
					t.Errorf("round %d: a slot with nothing to send is not silent", r)
				}
			}

			// A backlog grows the slot past DefaultOpenLen; once drained, its
			// last round closes it.
			backlog := bytes.Repeat([]byte("b"), 5*open)
			before := slotData()
			c.Send(backlog)
			for range 4 * silent {
				nextRound()
				if c.Pending() == 0 && headLayout(&c.node).Lens[c.Slot()] == 0 {
					break
				}
			}
			var last uint64
			var got []byte
			for r, data := range slotData() {
				if before[r] == nil {
					got = append(got, data...)
					last = max(last, r)
				}
			}
			if len(got) != len(backlog) {
				t.Fatalf("backlog: %d of %d bytes delivered", len(got), len(backlog))
			}
			if p := decode(last); len(sent[last].region) <= open || p.NextLen != 0 {
				t.Errorf("backlog's last round %d: slot length %d, NextLen %d; want a grown slot closing (NextLen 0)",
					last, len(sent[last].region), p.NextLen)
			}
			if n := headLayout(&c.node).Lens[c.Slot()]; n != 0 {
				t.Errorf("slot still open at %d bytes after the backlog drained", n)
			}

			// A witness keeps the reopened slot open and non-silent.
			r3 := deliver([]byte("reopened"))
			nextRound()
			c.witness = &witnessInfo{round: r3}
			wr := c.Round()
			f.stepUntilRound(wr, 400_000)
			if p := decode(wr); p.NextLen != open || p.ShuffleReq == 0 || len(p.Data) != 0 {
				t.Errorf("witness round %d: NextLen %d, ShuffleReq %d, %d data bytes; want %d, nonzero, 0",
					wr, p.NextLen, p.ShuffleReq, len(p.Data), open)
			}
		})
	}
}

// TestSparseSendersSkipRequestRound counts, on the core fixture, what
// keeping silent slots open saves a sparse workload: four senders, each
// posting once every 200 rounds — seconds apart on a loopback group, far
// longer than any record takes. A record whose slot is closed sets the
// request bit and rides a round one chain later; with four senders, under
// the schedule's bound of eight silent slots, only each sender's first
// record pays that.
func TestSparseSendersSkipRequestRound(t *testing.T) {
	const senders, period, records = 4, 200, 3
	reqs := make([]map[uint64]bool, senders) // the rounds each sender set its request bit in
	f := newFixture(t, 2, senders, fixtureOpts{
		clientOpts: func(idx int, o *Options) {
			reqs[idx] = map[uint64]bool{}
			o.Interdict = &Interdict{Vector: func(info VectorInfo, vec []byte) {
				if vec[info.OwnSlot/8]&(1<<(info.OwnSlot%8)) != 0 {
					reqs[idx][info.Round] = true
				}
			}}
		},
	})
	f.h.StartAll()
	for k := range records {
		for i, c := range f.clients {
			f.stepUntilRound(uint64(10+k*period+i*period/senders), 1_000_000)
			c.Send(fmt.Appendf(nil, "sender %d record %d", i, k))
		}
	}
	f.stepUntilRound(f.servers[0].Round()+10, 1_000_000)
	// delivered[i][k] is the round server 0 decoded sender i's record k in.
	delivered := make([][records]uint64, senders)
	for _, d := range f.h.Deliveries {
		var i, k int
		if d.Node == f.servers[0].ID() {
			if _, err := fmt.Sscanf(string(d.Data), "sender %d record %d", &i, &k); err == nil {
				delivered[i][k] = d.Round
			}
		}
	}
	for i := range senders {
		var before, after int
		for r := range reqs[i] {
			if r < delivered[i][0] {
				before++
			} else {
				after++
			}
		}
		t.Logf("sender %d: request bit in %d rounds before its first record, %d after", i, before, after)
		if slices.Contains(delivered[i][:], 0) {
			t.Fatalf("sender %d: records delivered in rounds %v; violations: %v", i, delivered[i], f.violations())
		}
		if before == 0 || after != 0 {
			t.Errorf("sender %d set its request bit in %d rounds before its first record and %d after, want some and none",
				i, before, after)
		}
	}
}
