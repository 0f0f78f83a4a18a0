package dissent

import (
	"errors"
	"fmt"

	"dissent/internal/beacon"
	"dissent/internal/core"
)

// BeaconSync is the result of SyncBeacon: a fully verified chain
// replica plus how its genesis was anchored.
type BeaconSync struct {
	// Chain holds the verified entries.
	Chain *BeaconChain
	// Added is how many entries the sync fetched.
	Added int
	// SessionBound reports whether the genesis was derived from the
	// server's schedule certificate (verified against the group's keys)
	// rather than the pre-session group-wide value. Only a
	// session-bound chain proves liveness: without it, an archived
	// previous-session chain verifies identically.
	SessionBound bool
}

// SyncBeacon fetches a server's randomness-beacon chain over HTTP
// (from a node running WithBeaconHTTP) and verifies every entry — one
// round certificate under the aggregate of the servers' keys — and
// chain link with the group's public keys alone. When the server
// publishes its schedule certificate, the certificate's signatures are
// verified and the chain is anchored at the session genesis they
// determine — rejecting archived previous-session chains replayed as
// live; otherwise (setup still in progress) the sync falls back to the
// pre-session genesis and reports SessionBound=false.
func SyncBeacon(url string, def *Group) (*BeaconSync, error) {
	if def.Policy.BeaconEpochRounds == 0 {
		return nil, errors.New("dissent: the group policy disables the beacon")
	}
	src := &beacon.HTTPSource{URL: url}
	res := &BeaconSync{}
	genesis := beacon.GenesisValue(def.GroupID())
	cert, err := src.Schedule()
	switch {
	case err == nil:
		digest, err := core.VerifyScheduleCert(def, cert.Keys, cert.Sigs)
		if err != nil {
			return nil, fmt.Errorf("dissent: served schedule certificate rejected: %w", err)
		}
		genesis = beacon.SessionGenesis(def.GroupID(), digest)
		res.SessionBound = true
	case errors.Is(err, beacon.ErrNotFound):
		// No certified schedule yet (or a pre-SDK server): fall back to
		// the pre-session anchor.
	default:
		return nil, err
	}
	res.Chain = beacon.NewChain(def.Group(), def.ServerPubKeys(), genesis, nil)
	// Sync verifies every fetched entry (its certificate and chain
	// link) as it appends; a completed sync IS a verified chain.
	if res.Added, err = res.Chain.Sync(src); err != nil {
		return nil, err
	}
	return res, nil
}
