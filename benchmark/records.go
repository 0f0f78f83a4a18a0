package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"sort"
	"sync"
	"time"
)

// A slot is a byte stream and consecutive Sends coalesce inside the
// client engine, so the generator frames every payload as a record:
//
//	[u32 payload length][u64 record id][u32 crc32(payload)][payload]
//
// and the observers reassemble records per RoundOutput.Slot.
const recordHeaderLen = 16

// numObservers: server 0 and the highest-index client both check the
// full output stream.
const numObservers = 2

const (
	obsServer = 0
	obsClient = 1
)

// record is one generated payload and what the oracle has seen of it.
type record struct {
	id     uint64
	sender int // client index
	seq    int // position in the sender's own stream
	length int // payload bytes
	crc    uint32

	sent time.Time // due time (open loop) or Send call (closed loop)
	// sendFailed marks a Send error; seen counts deliveries per observer;
	// done is when each observer held the complete record.
	sendFailed bool
	seen       [numObservers]int
	done       [numObservers]time.Time
}

// seedStream returns the deterministic byte/number stream for one
// purpose of one seed, so record bytes, sender choice and arrival gaps
// do not perturb each other.
func seedStream(seed uint64, purpose string, n uint64) *rand.ChaCha8 {
	var key [32]byte
	binary.LittleEndian.PutUint64(key[:8], seed)
	binary.LittleEndian.PutUint64(key[8:16], n)
	copy(key[16:], purpose)
	return rand.NewChaCha8(key)
}

// newRand returns the seeded number stream for one purpose.
func newRand(seed uint64, purpose string) *rand.Rand {
	return rand.New(seedStream(seed, purpose, 0))
}

// arrivals is the open-loop schedule: independent users, so Poisson
// arrivals — conditioned on their count. Every whole second holds
// exactly rate records at seeded uniform offsets, which is what a
// Poisson process looks like given its count, and keeps the offered
// load per window identical across seeds.
type arrivals struct {
	rnd     *rand.Rand
	rate    int
	second  int
	pending []time.Duration
}

func newArrivals(seed uint64, rate int) *arrivals {
	return &arrivals{rnd: newRand(seed, "arrivals"), rate: rate}
}

// next returns the next record's due time as an offset from the start
// of the schedule.
func (a *arrivals) next() time.Duration {
	if len(a.pending) == 0 {
		base := time.Duration(a.second) * time.Second
		for i := 0; i < a.rate; i++ {
			a.pending = append(a.pending, base+time.Duration(a.rnd.Int64N(int64(time.Second))))
		}
		sort.Slice(a.pending, func(i, j int) bool { return a.pending[i] < a.pending[j] })
		a.second++
	}
	due := a.pending[0]
	a.pending = a.pending[1:]
	return due
}

// buildRecord frames record id for sender: the payload bytes are a
// pure function of (seed, id).
func buildRecord(seed, id uint64, length int) (frame []byte, crc uint32) {
	frame = make([]byte, recordHeaderLen+length)
	payload := frame[recordHeaderLen:]
	seedStream(seed, "record", id).Read(payload)
	crc = crc32.ChecksumIEEE(payload)
	binary.BigEndian.PutUint32(frame[0:4], uint32(length))
	binary.BigEndian.PutUint64(frame[4:12], id)
	binary.BigEndian.PutUint32(frame[12:16], crc)
	return frame, crc
}

// oracle is the output check: every record's id, length and CRC at
// both observers, exactly once, in order per slot. It is shared by the
// generator (which registers records) and the observers (which report
// reassembled ones); the first violation is kept with its record id.
type oracle struct {
	mu      sync.Mutex
	records []*record
	// onDone, when set, is told each time the observer client completes
	// a record (the closed-loop generator waits on it).
	onDone func(r *record)

	violation string
}

// add registers a fully described record; ids are dense, so the
// record's id is its index.
func (o *oracle) add(r *record) {
	o.mu.Lock()
	if r.id != uint64(len(o.records)) {
		o.fail("record %d registered out of order", r.id)
	}
	o.records = append(o.records, r)
	o.mu.Unlock()
}

func (o *oracle) fail(format string, args ...any) {
	if o.violation == "" {
		o.violation = fmt.Sprintf(format, args...)
	}
}

// slotStream reassembles one slot's byte stream at one observer.
type slotStream struct {
	buf    []byte
	sender int // -1 until the first record binds the slot to a sender
	next   int // next expected per-sender sequence number
}

// observer reassembles records from one member's decoded outputs.
type observer struct {
	which   int
	oracle  *oracle
	slots   map[int]*slotStream
	senders map[int]int // sender -> slot, to catch a sender on two slots
}

func newObserver(which int, o *oracle) *observer {
	return &observer{which: which, oracle: o, slots: make(map[int]*slotStream), senders: make(map[int]int)}
}

// feed appends one RoundOutput's data to its slot stream and checks
// every record that completes.
func (ob *observer) feed(slot int, data []byte, at time.Time) {
	st := ob.slots[slot]
	if st == nil {
		st = &slotStream{sender: -1}
		ob.slots[slot] = st
	}
	st.buf = append(st.buf, data...)
	for len(st.buf) >= recordHeaderLen {
		length := int(binary.BigEndian.Uint32(st.buf[0:4]))
		id := binary.BigEndian.Uint64(st.buf[4:12])
		crc := binary.BigEndian.Uint32(st.buf[12:16])
		ob.oracle.mu.Lock()
		var r *record
		if id < uint64(len(ob.oracle.records)) {
			r = ob.oracle.records[id]
		}
		if r == nil || r.length != length || r.crc != crc {
			ob.oracle.fail("observer %d slot %d: corrupt or unknown record header (id %d, length %d)", ob.which, slot, id, length)
			ob.oracle.mu.Unlock()
			st.buf = nil // the stream cannot be resynchronised
			return
		}
		ob.oracle.mu.Unlock()
		if len(st.buf) < recordHeaderLen+length {
			return // wait for the rest of the payload
		}
		payload := st.buf[recordHeaderLen : recordHeaderLen+length]
		got := crc32.ChecksumIEEE(payload)
		st.buf = st.buf[recordHeaderLen+length:]
		if len(st.buf) == 0 {
			st.buf = nil // release a large record's backing array
		}

		ob.oracle.mu.Lock()
		switch {
		case got != r.crc:
			ob.oracle.fail("observer %d: record %d payload corrupt (crc %08x, want %08x)", ob.which, id, got, r.crc)
		case st.sender >= 0 && st.sender != r.sender:
			ob.oracle.fail("observer %d: record %d of sender %d on slot %d, which carries sender %d", ob.which, id, r.sender, slot, st.sender)
		case r.seq != st.next && st.sender >= 0:
			ob.oracle.fail("observer %d: record %d out of order on slot %d (sequence %d, want %d)", ob.which, id, slot, r.seq, st.next)
		}
		if st.sender < 0 {
			if other, dup := ob.senders[r.sender]; dup && other != slot {
				ob.oracle.fail("observer %d: record %d: sender %d appears on slots %d and %d", ob.which, id, r.sender, other, slot)
			}
			if r.seq != 0 {
				ob.oracle.fail("observer %d: record %d opens slot %d at sequence %d, want 0", ob.which, id, slot, r.seq)
			}
			st.sender = r.sender
			ob.senders[r.sender] = slot
		}
		st.next = r.seq + 1
		r.seen[ob.which]++
		if r.seen[ob.which] > 1 {
			ob.oracle.fail("observer %d: record %d delivered %d times", ob.which, id, r.seen[ob.which])
		}
		r.done[ob.which] = at
		cb := ob.oracle.onDone
		ob.oracle.mu.Unlock()
		if cb != nil && ob.which == obsClient {
			cb(r)
		}
	}
}

// outstanding counts registered records not yet held by both observers.
func (o *oracle) outstanding() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	for _, r := range o.records {
		if !r.sendFailed && (r.seen[obsServer] == 0 || r.seen[obsClient] == 0) {
			n++
		}
	}
	return n
}

// verdict closes the books at the end of drain: attempted records,
// failed records (Send errors plus anything not delivered exactly once
// at both observers), and the first violation's description.
func (o *oracle) verdict() (attempted, failed int, violation string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, r := range o.records {
		attempted++
		ok := !r.sendFailed && r.seen[obsServer] == 1 && r.seen[obsClient] == 1
		if !ok {
			failed++
			if o.violation == "" {
				o.violation = fmt.Sprintf("record %d (sender %d) seen %d/%d times at server/client observer, send failed=%v",
					r.id, r.sender, r.seen[obsServer], r.seen[obsClient], r.sendFailed)
			}
		}
	}
	return attempted, failed, o.violation
}
