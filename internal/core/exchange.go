package core

import (
	"bytes"
	"fmt"
)

// exchange is one all-servers collection (ARCHITECTURE.md "All-servers
// exchanges"): a phase that waits on one signed message from each of the
// M servers, then acts. Each server's slot holds the decoded payload and
// the ingress digest of the message that carried it. The zero value is
// closed: it holds nothing and is never full.
type exchange[T any] struct {
	slots []slot[T]
	n     int // filled slots
}

type slot[T any] struct {
	v      T
	digest []byte
	filled bool
}

// open empties the exchange for a new (kind, position, attempt) over m
// servers.
func (x *exchange[T]) open(m int) {
	if cap(x.slots) < m {
		x.slots = make([]slot[T], m)
	}
	x.slots = x.slots[:m]
	clear(x.slots)
	x.n = 0
}

// put files this server's own contribution; peers' go through collect.
func (x *exchange[T]) put(si int, v T, digest []byte) {
	if !x.slots[si].filled {
		x.n++
	}
	x.slots[si] = slot[T]{v: v, digest: digest, filled: true}
}

func (x *exchange[T]) has(si int) bool      { return si < len(x.slots) && x.slots[si].filled }
func (x *exchange[T]) get(si int) T         { return x.slots[si].v }
func (x *exchange[T]) digest(si int) []byte { return x.slots[si].digest }
func (x *exchange[T]) full() bool           { return x.n > 0 && x.n == len(x.slots) }

// missing lists the servers whose slot is still empty.
func (x *exchange[T]) missing() []int {
	var out []int
	for si := range x.slots {
		if !x.slots[si].filled {
			out = append(out, si)
		}
	}
	return out
}

// values returns every server's payload in server order.
func (x *exchange[T]) values() []T {
	out := make([]T, len(x.slots))
	for si := range x.slots {
		out[si] = x.slots[si].v
	}
	return out
}

// collect files v, the validated payload of a peer's message m that
// ingress verified over digest, in its sender's slot, and reports
// whether the slot was empty. This is the one duplicate rule: a second
// copy with the same digest is a retransmit and dropped; a different one
// from the same signer is charged as equivocation, unless the kind
// keepsFirst.
func (x *exchange[T]) collect(s *Server, round uint64, m *Message, digest []byte, v T) (*Output, bool) {
	si := s.def.ServerIndex(m.From)
	if !x.slots[si].filled {
		x.put(si, v, digest)
		return nil, true
	}
	if bytes.Equal(x.slots[si].digest, digest) || keepsFirst(m.Type) {
		return &Output{}, false
	}
	return s.misbehave(round, m.From, "equivocation",
		fmt.Errorf("server %d sent two different %s for round %d", si, m.Type, round)), false
}

// keepsFirst reports whether a kind keeps a signer's first valid copy and
// drops a different later one uncharged: one whose payload is a signature
// over a statement every server computes alike (Schnorr signatures are
// randomized, and a restarted server signs again), or a shuffle list,
// which a restarted server re-collects for the same session. Every other
// kind is one message per (position, attempt) from an honest server
// (ARCHITECTURE.md names the exception: two restarts inside one round).
func keepsFirst(t MsgType) bool {
	switch t {
	case MsgScheduleCert, MsgRosterCert, MsgPseudonymList, MsgBlameList:
		return true
	}
	return false
}
