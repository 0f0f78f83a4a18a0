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
	g    crypto.Group
	pubs []crypto.Element
	st   *KVStore // nil = memory only

	mu      sync.RWMutex
	genesis Value
	entries []*Entry
}

// NewChain creates a chain replica. st, when non-nil, persists every
// appended entry; the entries it loaded from disk become the chain's
// initial contents, trusted as-is (call Verify to re-check them). A
// KVStore backs one chain.
func NewChain(g crypto.Group, serverPubs []crypto.Element, genesis Value, st *KVStore) *Chain {
	c := &Chain{g: g, pubs: serverPubs, genesis: genesis, st: st}
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

// Rebind replaces the chain's genesis value. It is legal only while
// the chain is empty: nodes create their chain replica at construction
// under the group-wide GenesisValue and rebind it to the
// SessionGenesis the moment the slot schedule certifies, before any
// entry exists. Rebinding a non-empty chain would orphan its entries,
// so it is refused.
func (c *Chain) Rebind(genesis Value) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.entries); n > 0 {
		return fmt.Errorf("beacon: rebind of a chain with %d entries", n)
	}
	c.genesis = genesis
	return nil
}

// RebindTrusted replaces the genesis value even when entries exist.
// It exists for the restart path: a server reopening its durable
// store holds entries it verified before persisting them, and the
// resumed session's genesis is recomputed from the restored snapshot's
// certified schedule digest. Trusting one's own disk here matches
// NewChain's contract ("entries loaded from disk are trusted as-is");
// Verify still re-checks lineage from the new genesis.
func (c *Chain) RebindTrusted(genesis Value) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.genesis = genesis
}

// ResetTrusted drops every entry, from the store too, and rebinds the
// chain to a new genesis — the established-replica re-sync path: a
// client adopting a certified session snapshot discards its (possibly
// diverged) chain replica and resumes appending from the snapshot's
// head value.
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

// Append verifies e against the current head and stores it. The entry
// must chain from the head value and carry a round beyond the latest.
func (c *Chain) Append(e *Entry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.afterHeadLocked(e); err != nil {
		return err
	}
	if err := VerifyEntry(c.g, c.pubs, c.headLocked(), e); err != nil {
		return err
	}
	return c.storeLocked(e)
}

// AppendTrusted stores an entry whose share authenticity the caller
// has already established through a stronger channel — in
// internal/core, all m servers' certification signatures cover the
// entry's chained value, and one of the m is honest by assumption.
// Only the chain linkage (round order, prev link, value recompute) is
// checked; the m per-share Schnorr verifications of Append are
// skipped, halving per-round client signature work.
func (c *Chain) AppendTrusted(e *Entry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.afterHeadLocked(e); err != nil {
		return err
	}
	if head := c.headLocked(); e.Prev != head {
		return fmt.Errorf("beacon: entry %d chains from %x, want %x", e.Round, e.Prev[:8], head[:8])
	}
	if len(e.Shares) != len(c.pubs) {
		return fmt.Errorf("beacon: entry %d has %d shares, want %d", e.Round, len(e.Shares), len(c.pubs))
	}
	if e.Value != computeValue(e.Prev, e.Round, e.Shares) {
		return fmt.Errorf("beacon: entry %d value mismatch", e.Round)
	}
	return c.storeLocked(e)
}

// afterHeadLocked refuses a nil entry or one whose round is not past
// the latest entry's.
func (c *Chain) afterHeadLocked(e *Entry) error {
	if e == nil {
		return errors.New("beacon: nil entry")
	}
	if latest := c.latestLocked(); latest != nil && e.Round <= latest.Round {
		return fmt.Errorf("beacon: append round %d at or before head round %d", e.Round, latest.Round)
	}
	return nil
}

// storeLocked accepts a checked entry: durably first when the chain
// has a store, so the chain never holds an entry its disk lacks.
func (c *Chain) storeLocked(e *Entry) error {
	if c.st != nil {
		if err := c.st.put(e); err != nil {
			return err
		}
	}
	c.entries = append(c.entries, e)
	return nil
}

// Verify re-checks the entire chain from genesis: every link, every
// share. It detects any after-the-fact tampering with stored entries.
func (c *Chain) Verify() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	prev := c.genesis
	for _, e := range c.entries {
		if err := VerifyEntry(c.g, c.pubs, prev, e); err != nil {
			return err
		}
		prev = e.Value
	}
	return nil
}

// Source supplies remote chain entries for catchup. The HTTP client in
// httpapi.go implements it against the beacon endpoints Handler serves.
type Source interface {
	// Latest returns the source's newest entry, or ErrNotFound when
	// the source chain is empty.
	Latest() (*Entry, error)
	// Range returns up to max entries with Round >= from, in
	// increasing round order. An empty slice means no entries remain.
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
// fetched a page at a time, verified, and appended. It returns the
// number of entries added. A node that missed any number of rounds
// converges to the source's head as long as the source is honest; a
// tampered source entry fails verification and aborts the sync.
func (c *Chain) Sync(src Source) (int, error) {
	remote, err := src.Latest()
	if errors.Is(err, ErrNotFound) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	added := 0
	for {
		next := uint64(0)
		if latest := c.Latest(); latest != nil {
			if latest.Round >= remote.Round {
				return added, nil
			}
			next = latest.Round + 1
		}
		page, err := src.Range(next, syncPageSize)
		if err != nil && !errors.Is(err, ErrNotFound) {
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
