package dissent

import (
	"context"
	"encoding/hex"
	"errors"
	"time"

	"dissent/internal/core"
	"dissent/internal/wire"
)

// Membership churn through the SDK. Expulsion and admission are
// server-side policy decisions (Session.Expel, Session.Admit, or blame
// verdicts); the shared mechanism — a RosterUpdate certified by every
// server and hash-chained to the previous roster version — applies at
// each beacon epoch boundary (Policy.BeaconEpochRounds). Clients
// observe churn through EventMemberJoined / EventMemberExpelled /
// EventRosterChanged subscriptions, expelled clients re-enter with
// Session.Rejoin, and brand-new members attach mid-session with
// Host.OpenJoiner.

// RosterMemberInfo describes one member in a roster snapshot.
type RosterMemberInfo struct {
	ID       string `json:"id"`
	Role     string `json:"role"`
	Expelled bool   `json:"expelled,omitempty"`
}

// RosterInfo is a point-in-time snapshot of a session's certified
// roster, served by dissentd's /roster endpoint.
type RosterInfo struct {
	// Session is the session's identifier (the genesis group ID, stable
	// across churn).
	Session SessionID `json:"session"`
	// Group is the group's human-readable name.
	Group string `json:"group"`
	// Version is the roster version: 0 at genesis, +1 per epoch
	// boundary's certified update.
	Version uint64 `json:"version"`
	// Digest is the roster hash-chain head (hex).
	Digest string `json:"digest"`
	// ActiveClients counts clients not currently expelled.
	ActiveClients int `json:"active_clients"`
	// Members lists every roster member with role and expulsion state.
	Members []RosterMemberInfo `json:"members"`
	// Update is the latest certified RosterUpdate (hex of its canonical
	// encoding), verifiable against the group's server keys; empty
	// before the first boundary and on client sessions.
	Update string `json:"update,omitempty"`
}

// RosterVersion returns the session's current roster version.
func (s *Session) RosterVersion() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.server != nil {
		return s.server.RosterVersion()
	}
	return s.client.RosterVersion()
}

// RosterInfo returns a snapshot of the session's certified roster.
func (s *Session) RosterInfo() RosterInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	def := s.def
	if s.server != nil {
		def = s.server.Definition()
	} else if s.client != nil {
		def = s.client.Definition()
	}
	digest := def.RosterDigest()
	info := RosterInfo{
		Session:       s.sid,
		Group:         def.Name,
		Version:       def.Version,
		Digest:        hex.EncodeToString(digest[:]),
		ActiveClients: def.ActiveClients(),
	}
	for _, m := range def.Servers {
		info.Members = append(info.Members, RosterMemberInfo{ID: m.ID.String(), Role: "server"})
	}
	for _, m := range def.Clients {
		info.Members = append(info.Members, RosterMemberInfo{ID: m.ID.String(), Role: "client", Expelled: m.Expelled})
	}
	if s.server != nil {
		if u := s.server.LatestRosterUpdate(); u != nil {
			info.Update = hex.EncodeToString(wire.Encode(u))
		}
	}
	return info
}

// Admit pre-approves an identity public key (its canonical encoding,
// e.g. EncodePublicKey) for admission on this server session: a
// subsequent JoinRequest bearing the key is accepted even under closed
// admission. The member enters only via the certified roster update at
// the next epoch boundary.
func (s *Session) Admit(encodedPub []byte) error {
	if s.server == nil {
		return errors.New("dissent: Admit on a client session (admission is server policy)")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("dissent: session is shut down")
	}
	s.server.Admit(encodedPub)
	return nil
}

// Expel queues a client for removal at the next epoch boundary on this
// server session. The expulsion takes effect everywhere at once when
// the certified roster update applies.
func (s *Session) Expel(id NodeID) error {
	if s.server == nil {
		return errors.New("dissent: Expel on a client session (expulsion is server policy)")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("dissent: session is shut down")
	}
	return s.server.Expel(id)
}

// rejoinRetry paces re-sent rejoin requests while waiting for an
// eligible epoch boundary.
const rejoinRetry = 300 * time.Millisecond

// Rejoin asks the group to re-admit this (expelled) client. It sends a
// signed rejoin request to the upstream server — retrying across epoch
// boundaries, since eligibility is gated by the policy cooldown
// (Policy.ReadmitCooldownRounds) — and blocks until a certified roster
// update re-admits the client, the context ends, or the session shuts
// down. After Rejoin returns nil the client is active again and resumes
// submitting with its original slot and seeds.
func (s *Session) Rejoin(ctx context.Context) error {
	if s.client == nil {
		return errors.New("dissent: Rejoin on a server session")
	}
	events := s.Subscribe(EventMemberJoined)
	defer s.unsubscribe(events)
	send := func() (*core.Output, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.closed {
			return nil, errors.New("dissent: session is shut down")
		}
		if !s.client.Expelled() {
			return nil, nil // already (re-)admitted
		}
		return s.client.RequestRejoin(time.Now())
	}
	// The first send is strict: calling Rejoin before this client has
	// learned of its own expulsion (wait for EventMemberExpelled) is a
	// caller bug that would otherwise silently do nothing.
	out, err := send()
	if err != nil {
		return err
	}
	if out == nil {
		return errors.New("dissent: Rejoin on a client that is not expelled")
	}
	s.dispatch(out)

	ticker := time.NewTicker(rejoinRetry)
	defer ticker.Stop()
	for {
		select {
		case e, ok := <-events:
			if !ok {
				return errors.New("dissent: session shut down during rejoin")
			}
			if e.Culprit == s.id {
				return nil
			}
		case <-ticker.C:
			// Re-send: the previous request may have raced a version bump
			// or awaits the cooldown. Errors here are soft (e.g. already
			// re-admitted, with the event still in flight).
			if out, err := send(); err == nil && out != nil {
				s.dispatch(out)
			} else if err == nil && out == nil {
				return nil
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// unsubscribe detaches a Subscribe channel and closes it.
func (s *Session) unsubscribe(ch <-chan Event) {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if s.chansDone {
		return
	}
	for i, sub := range s.subs {
		if sub.ch == ch {
			s.subs = append(s.subs[:i], s.subs[i+1:]...)
			close(sub.ch)
			return
		}
	}
}

// EncodePublicKey returns the canonical encoding of a member's identity
// public key — the form Session.Admit and JoinRequests use.
func EncodePublicKey(grp *Group, keys Keys) []byte {
	return grp.Group().Encode(keys.Identity.Public)
}
