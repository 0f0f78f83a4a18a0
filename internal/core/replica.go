package core

import (
	"errors"
	"fmt"

	"dissent/internal/beacon"
	"dissent/internal/dcnet"
	"dissent/internal/group"
)

// The replica (ARCHITECTURE.md "The replica"). Every member — client and
// server alike — derives round r+1's slot layout from round r's certified
// output, so the schedule (which holds the output head and the drain
// point beside the slot state) and the beacon chain are one replicated
// state machine, held in node. Its transitions are written here once: built (newSchedule), moved by a certified output (retire) or
// a certified roster update (applyRoster), captured and reinstalled
// (snapshot, restore). Each performs every step that can fail before its
// first assignment, so a failure leaves the replica exactly as it was.
// What a role does about a transition — events, forwarding, blame
// history, resubmission — stays with the handler that called it.

// errLayout marks a certified cleartext that does not fit the layout its
// round decodes at: the replica has diverged from the group's.
var errLayout = errors.New("core: certified cleartext does not fit the replica's layout")

// schedConfig is the schedule configuration the group policy fixes, over
// numSlots slots (0 when restoring: the snapshot names the count).
func (n *node) schedConfig(numSlots int) dcnet.Config {
	return dcnet.Config{
		NumSlots:       numSlots,
		DefaultOpenLen: n.def.Policy.DefaultOpenLen,
		MaxSlotLen:     n.def.Policy.MaxSlotLen,
		Lag:            n.depth - 1,
	}
}

// newSchedule installs the round-0 replica over numSlots slots. certKeys
// and certSigs are the schedule certificate setup produced (nil under
// trusted bootstrap, which certifies nothing): the still-empty beacon
// chain is rebound to the session genesis derived from it — every node
// from identical inputs, servers from their collected certificates and
// clients from the verified Schedule message — before anything is
// assigned, so a rebind failure leaves no half-started session.
func (n *node) newSchedule(numSlots int, certKeys, certSigs [][]byte) error {
	sched, err := dcnet.NewSchedule(n.schedConfig(numSlots))
	if err != nil {
		return err
	}
	if n.beaconChain != nil && len(certKeys) > 0 {
		genesis := beacon.SessionGenesis(n.grpID, scheduleCertDigest(n.grpID, certKeys, certSigs))
		if err := n.beaconChain.Rebind(genesis); err != nil {
			return err
		}
	}
	n.sched, n.certKeys, n.certSigs = sched, certKeys, certSigs
	return nil
}

// verifyOutput decodes a round output and checks its round certificate
// against the replica. The round's beacon entry is rebuilt from the
// carried shares on top of our chain head; the certificate covers its
// chained value, so a bogus share set fails here before it can touch the
// chain. The entry (nil for a failed round or a beacon-off group) is what
// retire appends.
func (n *node) verifyOutput(round uint64, body []byte) (*RoundOutput, *beacon.Entry, error) {
	ro, err := DecodeRoundOutput(body)
	if err != nil {
		return nil, nil, err
	}
	var entry *beacon.Entry
	if !ro.Failed && n.beaconChain != nil {
		entry = beacon.NewEntry(round, n.beaconChain.Head(), ro.Beacon)
	}
	if err := verifyRoundCert(n.def, n.cert.Key(), n.grpID, round, ro, beaconValueBytes(entry)); err != nil {
		return nil, nil, err
	}
	return ro, entry, nil
}

// head is the output head: the oldest round whose output, certified or
// failed, has not been applied — the schedule's round, or 0 before one
// is installed.
func (n *node) head() uint64 {
	if n.sched == nil {
		return 0
	}
	return n.sched.Round()
}

// retire applies round's certified output — the head round's, whose
// certificate the caller has checked — and moves the head past it. A
// certified round extends the beacon chain with entry (every share was
// verified at combine time, or is covered by the certificate) before the
// schedule advances; it returns what the schedule decoded. A failed
// round contributes no directives but still takes its place in the delta
// queue, and returns nil. The cleartext is sized and the beacon store
// written before the schedule moves: on error nothing has.
func (n *node) retire(round uint64, ro *RoundOutput, entry *beacon.Entry) (*dcnet.RoundResult, error) {
	if head := n.head(); round != head {
		return nil, fmt.Errorf("core: retiring round %d at head %d", round, head)
	}
	if ro.Failed {
		n.sched.AdvanceFailed()
		return nil, nil
	}
	if want := n.sched.Layout(round).Len; len(ro.Cleartext) != want {
		return nil, fmt.Errorf("%w: round %d carries %d bytes, want %d", errLayout, round, len(ro.Cleartext), want)
	}
	if entry != nil {
		if err := n.beaconChain.AppendTrusted(entry); err != nil {
			return nil, fmt.Errorf("core: round %d beacon append: %w", round, err)
		}
	}
	res, err := n.sched.Advance(ro.Cleartext)
	if err != nil { // unreachable: the cleartext was sized for this layout above
		return nil, fmt.Errorf("core: schedule advance: %w", err)
	}
	return res, nil
}

// reportRetired appends what every role surfaces for a certified round:
// the decoded slot payloads.
func (n *node) reportRetired(round uint64, res *dcnet.RoundResult, out *Output) {
	for slot, pl := range res.Payloads {
		if pl != nil && len(pl.Data) > 0 {
			out.Deliveries = append(out.Deliveries, Delivery{Round: round, Slot: slot, Data: pl.Data})
		}
	}
}

// applyRoster moves the replica to the definition a certified roster
// update produced. The caller derived newDef (ApplyRosterUpdate; a server
// also the joiners' pairwise seeds) — the fallible part — so this only
// commits: the definition swap; one closed slot per appended member; the
// epoch rotation — the layout permutation re-derived over the slot set
// from the beacon head and the new roster digest; and the post-apply
// schedule digest, the replication point divergence detection compares
// (zero on a client that has no schedule yet). Every epoch boundary
// applies exactly one update, an empty one included, after the pipeline
// has drained on every replica — so the rotation lands between the same
// two rounds everywhere, however many rounds failed before it, and the
// update is a drain point, recorded before the digest covers it.
func (n *node) applyRoster(u *group.RosterUpdate, newDef *group.Definition, out *Output) (dig [32]byte) {
	grown := len(newDef.Clients) - len(n.def.Clients)
	n.setDef(newDef)
	if n.sched == nil {
		return dig
	}
	n.sched.Drained()
	n.sched.Grow(grown, n.rosterPermSeed(newDef))
	out.Events = append(out.Events, Event{Kind: EventEpochRotated, Round: n.head(),
		Detail: fmt.Sprintf("roster version %d", u.Version)})
	return n.sched.Digest()
}

// snapshot captures the replica image at a round boundary: the schedule
// as dcnet.Schedule.AppendState writes it, output head and drain point
// included — the very bytes the schedule digest hashes. ServerSnapshot
// and JoinWelcome carry it beside what each adds.
func (n *node) snapshot() []byte { return n.sched.AppendState(nil) }

// restore installs a snapshot's replica image. The image comes from disk
// or from a peer: dcnet.RestoreSchedule validates it as it rebuilds it,
// the pipeline position included. rebind, when non-nil, is the caller's
// last word given the restored head — its beacon-chain repositioning, the
// one commit step that can still fail, so it runs after every check and
// before the first assignment.
func (n *node) restore(state []byte, rebind func(head uint64) error) error {
	sched, err := dcnet.RestoreSchedule(n.schedConfig(0), state)
	if err != nil {
		return err
	}
	if rebind != nil {
		if err := rebind(sched.Round()); err != nil {
			return err
		}
	}
	n.sched = sched
	return nil
}

// ScheduleCertificate returns the certified schedule — the slot-key list
// and every server's signature over it — or nils before setup completes,
// under trusted bootstrap (which certifies nothing) and on a member that
// joined mid-session. The dissent SDK serves it beside the beacon chain
// so external verifiers can derive the session's beacon genesis from any
// node.
func (n *node) ScheduleCertificate() (keys, sigs [][]byte) { return n.certKeys, n.certSigs }

// SchedulePermutation returns the current slot-layout permutation, or
// nil before the schedule is established.
func (n *node) SchedulePermutation() []int {
	if n.sched == nil {
		return nil
	}
	return n.sched.Permutation()
}
