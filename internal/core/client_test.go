package core

import (
	"bytes"
	"fmt"
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
// all-zero; a record queued inside the horizon rides the very next
// composed round with no request bit set in between; a backlog that grew
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
			horizon := f.def.Policy.IdleCloseRounds * depth
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
				for range 4 * horizon {
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

			// Inside the horizon the slot stays open and silent; the next
			// record rides the next composed round with no request round.
			for range horizon / 2 {
				nextRound()
			}
			next := c.Round()
			if r2 := deliver([]byte("the next record")); r2 != next {
				t.Errorf("a record queued inside the horizon rode round %d, want the next composed round %d", r2, next)
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
			for range 4 * horizon {
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
