// Package adversary is a catalog of scripted byzantine behaviors for
// robustness testing. An Adversary compiles a schedule of Behaviors
// into a core.Interdict that an otherwise honest engine installs via
// core.Options.Interdict: the node keeps running the real protocol and
// the interdict tampers with exactly the surfaces a compromised member
// controls — its cleartext vector, its DC-net share, and its outgoing
// signed frames. Every behavior is deterministic given its Seed, so a
// simulated attack replays bit-for-bit.
//
// The catalog covers the disruption classes of Wolinsky et al. (OSDI
// 2012): slot jamming (§3.9's motivating attack), ciphertext
// equivocation, corrupted pad shares, bad certificate signatures,
// selective withholding, duplicate/replayed round messages, and
// malformed wire frames.
package adversary

import (
	"fmt"

	"dissent/internal/core"
	"dissent/internal/group"
)

// Kind names a scripted byzantine behavior.
type Kind string

// The behavior catalog. Client-side kinds act through the Vector or
// Outbound hooks of a client engine; server-side kinds act through the
// Share or Outbound hooks of a server engine. Installing a kind on a
// role whose hooks it never matches is simply inert.
const (
	// SlotJam flips bits inside another member's slot range in the
	// jammer's cleartext vector before padding and signing: the
	// submission stays perfectly authentic while the victim's slot
	// output garbles. Detected by the victim's self-check and pinned by
	// the accusation trace (client expelled).
	SlotJam Kind = "slot-jam"
	// CorruptShare flips a byte of a server's DC-net share before it is
	// committed, so commit and share stay consistent and the round's
	// cleartext garbles. The blame trace's bit check exposes the server.
	CorruptShare Kind = "corrupt-share"
	// Equivocate sends conflicting signed payloads for the same round
	// message: a server presents different shares to different peers; a
	// client double-submits distinct ciphertexts. Receivers hold both
	// signed statements — provable equivocation.
	Equivocate Kind = "equivocate"
	// BadCertSig corrupts the server's contribution to the round
	// certificate carried inside MsgCertify — its partial response to
	// the collective signature (the envelope is re-signed, so only the
	// inner certificate check fails).
	BadCertSig Kind = "bad-cert-sig"
	// Withhold drops outgoing round messages (optionally only to
	// Targets), modeling selective silence.
	Withhold Kind = "withhold"
	// Replay re-sends retained signed messages: each intercepted
	// envelope is duplicated Copies times and the previously retained
	// envelope of the same type is re-emitted.
	Replay Kind = "replay"
	// Malform replaces an outgoing message body with same-length
	// garbage and re-signs, so the frame authenticates but fails to
	// decode.
	Malform Kind = "malform"
)

// Kinds lists the full catalog.
func Kinds() []Kind {
	return []Kind{SlotJam, CorruptShare, Equivocate, BadCertSig, Withhold, Replay, Malform}
}

// Behavior schedules one Kind across a round range.
type Behavior struct {
	Kind Kind
	// FromRound..ToRound bounds the active rounds (inclusive).
	// ToRound 0 means "no upper bound".
	FromRound uint64
	ToRound   uint64
	// Every acts only on rounds with (round-FromRound) % Every == 0;
	// 0 or 1 means every round in range.
	Every uint64
	// Targets restricts Withhold (recipients to starve) and Equivocate
	// (recipients fed the conflicting variant). Empty means a seeded
	// half of the recipients for Equivocate and everyone for Withhold.
	Targets []group.NodeID
	// Copies is Replay's duplication factor per intercepted envelope
	// (default 3).
	Copies int
	// Seed decorrelates this behavior's deterministic choices.
	Seed uint64
}

func (b *Behavior) active(round uint64) bool {
	if round < b.FromRound {
		return false
	}
	if b.ToRound != 0 && round > b.ToRound {
		return false
	}
	if b.Every > 1 && (round-b.FromRound)%b.Every != 0 {
		return false
	}
	return true
}

// rnd derives this behavior's deterministic choice for a round and
// salt.
func (b *Behavior) rnd(round, salt uint64) uint64 {
	return mix(b.Seed ^ mix(round) ^ mix(salt))
}

// mix is the splitmix64 finalizer: cheap, deterministic, well mixed.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func idSalt(id group.NodeID) uint64 {
	var x uint64
	for _, b := range id {
		x = x<<8 | uint64(b)
	}
	return x
}

// Adversary is a compiled behavior schedule. One Adversary drives one
// node; give each byzantine node its own (with distinct Seeds) to
// avoid correlated choices.
type Adversary struct {
	behaviors []Behavior
	// replayHeld retains the last signed envelope per message type for
	// the Replay behavior.
	replayHeld map[core.MsgType]core.Envelope
}

// New compiles a behavior schedule. Unknown kinds are rejected here so
// a scenario config typo fails fast instead of silently doing nothing.
func New(behaviors ...Behavior) (*Adversary, error) {
	known := make(map[Kind]bool)
	for _, k := range Kinds() {
		known[k] = true
	}
	for i := range behaviors {
		if !known[behaviors[i].Kind] {
			return nil, fmt.Errorf("adversary: unknown behavior kind %q", behaviors[i].Kind)
		}
		if behaviors[i].Kind == Replay && behaviors[i].Copies <= 0 {
			behaviors[i].Copies = 3
		}
	}
	return &Adversary{
		behaviors:  behaviors,
		replayHeld: make(map[core.MsgType]core.Envelope),
	}, nil
}

// MustNew is New for statically-known schedules (builtin scenarios).
func MustNew(behaviors ...Behavior) *Adversary {
	a, err := New(behaviors...)
	if err != nil {
		panic(err)
	}
	return a
}

// Interdict compiles the schedule into the engine hook. The returned
// Interdict is not safe for concurrent engines; build one Adversary
// per node.
func (a *Adversary) Interdict() *core.Interdict {
	return &core.Interdict{
		Vector:   a.vector,
		Share:    a.share,
		Outbound: a.outbound,
	}
}

// vector implements SlotJam.
func (a *Adversary) vector(info core.VectorInfo, vec []byte) {
	for i := range a.behaviors {
		b := &a.behaviors[i]
		if b.Kind != SlotJam || !b.active(info.Round) {
			continue
		}
		a.jamSlot(b, info, vec)
	}
}

func (a *Adversary) jamSlot(b *Behavior, info core.VectorInfo, vec []byte) {
	if info.NumSlots < 2 {
		return
	}
	// Choose a victim slot deterministically among the open slots that
	// are not our own. (Slot ownership is pseudonymous — a real jammer
	// cannot aim at an identity either, only at a slot.)
	var open []int
	for s := 0; s < info.NumSlots; s++ {
		if s == info.OwnSlot {
			continue
		}
		if _, n := info.SlotRange(s); n > 0 {
			open = append(open, s)
		}
	}
	if len(open) == 0 {
		return
	}
	victim := open[b.rnd(info.Round, 0)%uint64(len(open))]
	off, n := info.SlotRange(victim)
	// Flip a bit somewhere past the slot header: enough to garble the
	// victim's cleartext, and a single provable position for the trace.
	pos := off + int(b.rnd(info.Round, 1)%uint64(n))
	vec[pos] ^= 1 << (b.rnd(info.Round, 2) % 8)
}

// share implements CorruptShare.
func (a *Adversary) share(round uint64, share []byte) {
	for i := range a.behaviors {
		b := &a.behaviors[i]
		if b.Kind != CorruptShare || !b.active(round) || len(share) == 0 {
			continue
		}
		pos := int(b.rnd(round, 3) % uint64(len(share)))
		share[pos] ^= 0xFF
	}
}

// roundMsg reports whether a message type carries per-round protocol
// state worth attacking (setup/join traffic is left alone so the
// adversary can actually enter and stay in the session).
func roundMsg(t core.MsgType) bool {
	switch t {
	case core.MsgClientSubmit, core.MsgInventory, core.MsgCommit,
		core.MsgShare, core.MsgCertify:
		return true
	}
	return false
}

// outbound implements Equivocate, BadCertSig, Withhold, Replay, and
// Malform. Behaviors compose left to right over the envelope list.
func (a *Adversary) outbound(env core.Envelope, resign func(*core.Message) *core.Message) []core.Envelope {
	out := []core.Envelope{env}
	for i := range a.behaviors {
		b := &a.behaviors[i]
		next := out[:0:0]
		for _, e := range out {
			if e.Msg == nil || !roundMsg(e.Msg.Type) || !b.active(e.Msg.Round) {
				next = append(next, e)
				continue
			}
			switch b.Kind {
			case Withhold:
				if len(b.Targets) == 0 || containsID(b.Targets, e.To) {
					continue // dropped
				}
				next = append(next, e)
			case Equivocate:
				next = append(next, a.equivocate(b, e, resign)...)
			case BadCertSig:
				if e.Msg.Type == core.MsgCertify {
					next = append(next, mutated(e, resign, func(body []byte) {
						body[len(body)-1] ^= 0xFF
					}))
				} else {
					next = append(next, e)
				}
			case Malform:
				next = append(next, mutated(e, resign, func(body []byte) {
					for j := range body {
						body[j] = byte(b.rnd(e.Msg.Round, uint64(j)))
					}
				}))
			case Replay:
				next = append(next, e)
				for c := 0; c < b.Copies; c++ {
					next = append(next, e)
				}
				if held, ok := a.replayHeld[e.Msg.Type]; ok && held.Msg != e.Msg {
					next = append(next, held)
				}
				a.replayHeld[e.Msg.Type] = e
			default:
				next = append(next, e)
			}
		}
		out = next
	}
	return out
}

// equivocate sends a conflicting variant: to a seeded half of the
// peers (or the configured Targets) the payload's last byte is
// flipped and the frame re-signed; a client (whose only recipient is
// its upstream) instead emits both variants, a provable distinct
// double-submission.
func (a *Adversary) equivocate(b *Behavior, e core.Envelope, resign func(*core.Message) *core.Message) []core.Envelope {
	alt := mutated(e, resign, func(body []byte) {
		body[len(body)-1] ^= 0xFF
	})
	if e.Msg.Type == core.MsgClientSubmit {
		return []core.Envelope{e, alt}
	}
	conflicting := false
	if len(b.Targets) > 0 {
		conflicting = containsID(b.Targets, e.To)
	} else {
		conflicting = b.rnd(e.Msg.Round, idSalt(e.To))%2 == 1
	}
	if conflicting {
		return []core.Envelope{alt}
	}
	return []core.Envelope{e}
}

// mutated deep-copies the envelope's message, applies f to the body
// copy, and re-signs. The original message is never touched (the
// engine retains it for retransmission).
func mutated(e core.Envelope, resign func(*core.Message) *core.Message, f func(body []byte)) core.Envelope {
	body := append([]byte(nil), e.Msg.Body...)
	if len(body) == 0 {
		return e
	}
	f(body)
	m := &core.Message{From: e.Msg.From, Type: e.Msg.Type, Round: e.Msg.Round, Body: body}
	return core.Envelope{To: e.To, Msg: resign(m)}
}

func containsID(ids []group.NodeID, id group.NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
