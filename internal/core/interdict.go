package core

// Interdict is the adversary-injection hook: a scripted byzantine node
// is an honest engine plus an Interdict that tampers with what the
// engine computes or sends. Robustness tests and the
// internal/adversary behavior catalog install one through
// Options.Interdict; production nodes leave it nil. Every field is
// optional, and each runs on the engine's calling goroutine.
//
// The hook deliberately sits inside the engine rather than at the
// transport: tampering happens after layout/pad/signing decisions, so
// a behavior can produce exactly the malformed-but-authentic traffic a
// compromised member would — correctly signed frames carrying jammed
// slots, equivocated shares, or corrupted certificates.
type Interdict struct {
	// Vector mutates the client's cleartext DC-net message vector
	// after layout but before the pairwise pads are XORed in and the
	// submission is signed. This is the slot-jamming surface: flipping
	// bits inside another member's slot range garbles that slot's
	// cleartext (all DC-net layers are stream XORs) while the
	// jammer's own submission stays well-formed and correctly signed.
	Vector func(info VectorInfo, vec []byte)
	// Share mutates the server's DC-net share after combination but
	// before it is committed, so commit and share stay mutually
	// consistent and the corruption surfaces downstream as a garbled
	// cleartext — the byzantine-server disruption the accusation
	// trace (§3.9 check (b)) pins on the corrupting server. It runs
	// once per commitment: twice in a round whose speculative
	// commitment missed and was replaced by an explicit one.
	Share func(round uint64, share []byte)
	// Outbound intercepts every outgoing envelope after the engine
	// signed it and returns the envelopes to transmit instead:
	// returning the original alone is a no-op, none is selective
	// withholding, the original twice is duplication/replay, and a
	// mutated copy is equivocation or frame corruption. resign
	// re-signs a mutated message with the node's identity key so
	// tampered payloads still pass outer signature verification and
	// exercise payload validation (skip it to model a broken signer).
	// Implementations must not mutate env.Msg in place — the engine
	// may retain it for retransmission.
	Outbound func(env Envelope, resign func(*Message) *Message) []Envelope
}

// VectorInfo hands a Vector interdict the round's slot geometry so a
// behavior can find a victim's byte range in the composed vector.
type VectorInfo struct {
	Round uint64
	// OwnSlot is the submitting client's pseudonym slot.
	OwnSlot int
	// NumSlots is the schedule's slot count; SlotRange returns the
	// byte range [off, off+n) a slot occupies in vec this round
	// (n = 0 for a closed slot).
	NumSlots  int
	SlotRange func(slot int) (off, n int)
}

// applyInterdict runs the Outbound interdict over an output's sends.
// Engines call it once per Handle/Tick/Start on the fully merged
// output, so retransmissions pass through the hook exactly like first
// sends — a behavior scoped to a round range stops corrupting the
// resends once the range ends, which is what lets a wedged phase heal.
func (n *node) applyInterdict(out *Output) {
	if out == nil || n.interdict == nil || n.interdict.Outbound == nil || len(out.Send) == 0 {
		return
	}
	resign := func(m *Message) *Message {
		signed, err := n.sign(m.Type, m.Round, m.Body)
		if err != nil {
			return m
		}
		return signed
	}
	send := make([]Envelope, 0, len(out.Send))
	for _, env := range out.Send {
		send = append(send, n.interdict.Outbound(env, resign)...)
	}
	out.Send = send
}
