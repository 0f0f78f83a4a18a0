package beacon

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"dissent/internal/crypto"
)

// ErrNotFound reports a beacon round with no stored entry.
var ErrNotFound = errors.New("beacon: entry not found")

// Chain is a node's replica of the beacon chain: the verification
// context (group, server keys, genesis) plus the entries in increasing
// round order. With a KVStore every new entry is written to its bucket
// before the chain accepts it; without one the chain lives in memory.
// All methods are safe for concurrent use, so an HTTP serving goroutine
// can read while the protocol engine appends.
type Chain struct {
	g   crypto.Group
	key crypto.Element // X̃, the servers' aggregate key
	st  *KVStore       // nil = memory only

	mu      sync.RWMutex
	genesis Value
	entries []*Entry
}

// NewChain creates a chain replica verifying entries under the
// aggregate of serverPubs, in server-index order. st, when non-nil,
// backs this one chain: it persists every appended entry, and the
// entries it loaded are the initial contents, trusted as-is (Verify
// re-checks them).
func NewChain(g crypto.Group, serverPubs []crypto.Element, genesis Value, st *KVStore) *Chain {
	c := &Chain{g: g, key: crypto.NewMultisig(g, serverPubs).Key(), genesis: genesis, st: st}
	if st != nil {
		c.entries = st.loaded
		st.loaded = nil
	}
	return c
}

// Genesis returns the chain's genesis value.
func (c *Chain) Genesis() Value {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.genesis
}

// Rebind replaces the genesis value of an empty chain: nodes create
// their replica under the group-wide GenesisValue and rebind it to the
// SessionGenesis when the slot schedule certifies, before any entry
// exists. A non-empty chain's entries would be orphaned, so it refuses.
func (c *Chain) Rebind(genesis Value) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.entries); n > 0 {
		return fmt.Errorf("beacon: rebind of a chain with %d entries", n)
	}
	c.genesis = genesis
	return nil
}

// RebindTrusted replaces the genesis value even when entries exist —
// the restart path: a server reloading entries it verified before
// persisting them recomputes the session genesis from its snapshot.
// Verify still re-checks lineage from the new genesis.
func (c *Chain) RebindTrusted(genesis Value) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.genesis = genesis
}

// ResetTrusted drops every entry, from the store too, and rebinds the
// chain to genesis: a client adopting a certified session snapshot
// resumes appending from the snapshot's head value.
func (c *Chain) ResetTrusted(genesis Value) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.st != nil {
		if err := c.st.clear(); err != nil {
			return err
		}
	}
	c.entries = nil
	c.genesis = genesis
	return nil
}

// Head returns the value the next entry must chain from: the latest
// entry's value, or the genesis value for an empty chain.
func (c *Chain) Head() Value {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.headLocked()
}

func (c *Chain) headLocked() Value {
	if e := c.latestLocked(); e != nil {
		return e.Value
	}
	return c.genesis
}

func (c *Chain) latestLocked() *Entry {
	if n := len(c.entries); n > 0 {
		return c.entries[n-1]
	}
	return nil
}

// searchLocked returns the index of the earliest entry with
// Round >= round (len(c.entries) when none).
func (c *Chain) searchLocked(round uint64) int {
	return sort.Search(len(c.entries), func(i int) bool { return c.entries[i].Round >= round })
}

// Latest returns the newest entry, or nil for an empty chain.
func (c *Chain) Latest() *Entry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.latestLocked()
}

// Get returns the entry for an exact round, or nil.
func (c *Chain) Get(round uint64) *Entry {
	if e := c.From(round); e != nil && e.Round == round {
		return e
	}
	return nil
}

// From returns the earliest entry with Round >= round, or nil.
func (c *Chain) From(round uint64) *Entry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if i := c.searchLocked(round); i < len(c.entries) {
		return c.entries[i]
	}
	return nil
}

// Len returns the number of chain entries.
func (c *Chain) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// VerifyEntry checks e against the chain value prev it extends: Prev is
// prev, the value is chained from it, and the certificate is one valid
// signature under the aggregate key over the entry's digest. Tampering
// with any field fails it.
func (c *Chain) VerifyEntry(prev Value, e *Entry) error {
	if err := link(prev, e); err != nil {
		return err
	}
	sig, err := crypto.DecodeSignature(c.g, e.Sig)
	if err == nil {
		err = crypto.Verify(c.g, c.key, CertContext, CertDigest(e.Round, e.Count, e.Cleartext, prev), sig)
	}
	if err != nil {
		return fmt.Errorf("beacon: entry %d certificate: %w", e.Round, err)
	}
	return nil
}

// link checks that e declares prev as its predecessor and chains its
// value from it.
func link(prev Value, e *Entry) error {
	if e.Prev != prev {
		return fmt.Errorf("beacon: entry %d chains from %x, want %x", e.Round, e.Prev[:8], prev[:8])
	}
	if e.Value != computeValue(prev, e.Round, e.Sig) {
		return fmt.Errorf("beacon: entry %d value mismatch", e.Round)
	}
	return nil
}

// Append verifies e against the current head and stores it. The entry
// must chain from the head value and carry a round beyond the latest.
func (c *Chain) Append(e *Entry) error { return c.append(e, c.VerifyEntry) }

// AppendTrusted stores the entry of a round whose certificate the
// caller has already verified — in internal/core, the round output's
// own check. Only the chain linkage (round order, prev link, value
// recompute) is checked, so the certificate is verified once per round.
func (c *Chain) AppendTrusted(e *Entry) error { return c.append(e, link) }

// append stores e past the latest entry once check accepts it against
// the head: durably first when the chain has a store, so the chain
// never holds an entry its disk lacks.
func (c *Chain) append(e *Entry, check func(prev Value, e *Entry) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e == nil {
		return errors.New("beacon: nil entry")
	}
	if latest := c.latestLocked(); latest != nil && e.Round <= latest.Round {
		return fmt.Errorf("beacon: append round %d at or before head round %d", e.Round, latest.Round)
	}
	if err := check(c.headLocked(), e); err != nil {
		return err
	}
	if c.st != nil {
		if err := c.st.put(e); err != nil {
			return err
		}
	}
	c.entries = append(c.entries, e)
	return nil
}

// Verify re-checks the entire chain from genesis: every link, every
// certificate. It detects any after-the-fact tampering with stored
// entries.
func (c *Chain) Verify() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	prev := c.genesis
	for _, e := range c.entries {
		if err := c.VerifyEntry(prev, e); err != nil {
			return err
		}
		prev = e.Value
	}
	return nil
}

// Source supplies remote chain entries for catchup. The HTTP client in
// httpapi.go implements it against the beacon endpoints Handler serves.
type Source interface {
	// Range returns up to max entries with Round >= from, in
	// increasing round order. An empty slice, or ErrNotFound, means no
	// entries remain.
	Range(from uint64, max int) ([]*Entry, error)
}

// syncPageSize bounds entries fetched per Source.Range round trip.
const syncPageSize = 256

// RangeFrom returns up to max stored entries with Round >= round, in
// increasing round order (the serving side of Source.Range).
func (c *Chain) RangeFrom(round uint64, max int) []*Entry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	page := c.entries[c.searchLocked(round):]
	return append([]*Entry(nil), page[:min(max, len(page))]...)
}

// Sync catches this chain up to src: entries past the local head are
// fetched a page at a time, verified, and appended, until src has no
// more. It returns the number added; a tampered source entry fails
// verification and aborts the sync.
func (c *Chain) Sync(src Source) (int, error) {
	added := 0
	for {
		next := uint64(0)
		if latest := c.Latest(); latest != nil {
			next = latest.Round + 1
		}
		page, err := src.Range(next, syncPageSize)
		if errors.Is(err, ErrNotFound) {
			return added, nil
		}
		if err != nil {
			return added, err
		}
		if len(page) == 0 {
			return added, nil
		}
		for _, e := range page {
			if err := c.Append(e); err != nil {
				return added, fmt.Errorf("beacon: sync round %d: %w", e.Round, err)
			}
			added++
		}
	}
}
