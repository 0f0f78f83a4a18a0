package core

import (
	"bytes"
	"fmt"
	"time"

	"dissent/internal/group"
	"dissent/internal/wire"
)

// Catch-up (ARCHITECTURE.md "Catch-up"). Rounds keep certifying while a
// member is away (§3.7). A member that fell behind states where it is in
// a message it sends anyway — a submission or inventory for a retired
// round, a roster proposal or certificate for a completed transition, a
// join request — and the server it reaches sends what it lacks. The
// decision is made here, once; each handler only reads the position out
// of its message.

// position is what a member's message says about its replica: the round
// it stands at, its roster version, its post-apply schedule digest for
// that version when it holds one, and whether it asks to be welcomed (a
// full join request from a member the roster already admits).
type position struct {
	round, version uint64
	digest         []byte
	welcome        bool
}

// catchUp answers the roster member to at the position its message — which
// the caller verified — stated; the welcome at admission states one on the
// joiner's behalf. The first matching rule wins:
//
//  1. a roster version from the future is a violation;
//  2. a welcome request, a schedule digest that disagrees with ours, a
//     version whose update is in neither the log nor the store, or a round
//     whose output is no longer retained gets a session snapshot — or, for
//     a server, a violation: certification needs every server, so its
//     peers are never more than depth + 1 rounds ahead of one, and nothing
//     a snapshot carries could help one that is;
//  3. an older version gets the certified updates since, in order, each
//     with its post-apply digest;
//  4. an older round gets the retained outputs from it on, up to a
//     pipeline depth of them, in order: each submission they release
//     states the next stale round, so a client climbs back to the live
//     round without waiting for a resend timer;
//  5. anything else is current and gets nothing.
func (s *Server) catchUp(now time.Time, to group.NodeID, at position, out *Output) error {
	if at.version > s.def.Version {
		out.merge(s.violation(s.head(), fmt.Errorf("%s states the future roster version %d (current %d)",
			to, at.version, s.def.Version)))
		return nil
	}
	var chain []*group.RosterUpdate
	for v := at.version + 1; v <= s.def.Version; v++ {
		if u := s.lookupRosterUpdate(v); u != nil {
			chain = append(chain, u)
		}
	}
	diverged := false
	if len(at.digest) == 32 {
		dig, ok := s.rosterDigestFor(at.version)
		diverged = ok && !bytes.Equal(at.digest, dig[:])
	}
	_, retained := s.outMsgs[at.round]
	switch {
	case at.welcome || diverged || uint64(len(chain)) < s.def.Version-at.version || at.round < s.head() && !retained:
		if s.def.ServerIndex(to) >= 0 {
			out.merge(s.violation(s.head(), fmt.Errorf("server %s is behind what catch-up can replay (round %d, version %d)",
				to, at.round, at.version)))
			return nil
		}
		return s.sendSnapshot(now, to, at.welcome, out)
	case at.version < s.def.Version:
		for _, u := range chain {
			var dig []byte // empty when unrecorded; receivers skip the self-check
			if d, ok := s.rosterDigestFor(u.Version); ok {
				dig = d[:]
			}
			body := wire.Encode(&RosterUpdateMsg{Update: wire.Encode(u), SchedDigest: dig})
			if err := s.sendTo(to, MsgRosterUpdate, s.head(), body, out); err != nil {
				return err
			}
		}
	case at.round < s.head():
		for r := at.round; r < min(s.head(), at.round+uint64(s.depth)); r++ {
			if err := s.sendTo(to, MsgOutput, r, s.outMsgs[r], out); err != nil {
				return err
			}
		}
	}
	return nil
}

// sendSnapshot sends a client the session snapshot, at most once per
// snapshotMinInterval: a replayed request must not amplify a small frame
// into a full snapshot every time. A welcome is anchored on the update
// that admitted the member — the joiner verifies its own admission — and
// a re-sync on the latest certified update, or on none before the first,
// which the member accepts only at its own roster version and digest.
func (s *Server) sendSnapshot(now time.Time, to group.NodeID, welcome bool, out *Output) error {
	if last, ok := s.snapshotSent[to]; ok && now.Sub(last) < snapshotMinInterval {
		return nil
	}
	anchor := s.lastRosterUpdate
	if welcome {
		anchor = nil
		if v, ok := s.joinedAt[to]; ok {
			anchor = s.lookupRosterUpdate(v)
		}
		if anchor == nil {
			out.merge(s.violation(s.head(), fmt.Errorf("cannot welcome %s: no admitting update in the roster log", to)))
			return nil
		}
	}
	s.snapshotSent[to] = now
	s.log.Info("session snapshot sent", "member", to.String(), "welcome", welcome,
		"version", s.def.Version, "round", s.head())
	return s.sendTo(to, MsgSnapshot, s.head(), wire.Encode(s.buildSnapshot(anchor)), out)
}

// sendTo signs one message to one member.
func (s *Server) sendTo(to group.NodeID, t MsgType, round uint64, body []byte, out *Output) error {
	m, err := s.sign(t, round, body)
	if err != nil {
		return err
	}
	out.Send = append(out.Send, Envelope{To: to, Msg: m})
	return nil
}
