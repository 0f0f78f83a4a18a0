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

// Store is the persistence contract for chain entries. Implementations
// must return entries in increasing round order from From and must not
// mutate stored entries. The in-memory MemStore is the default; see
// KVStore for durable persistence.
type Store interface {
	// Append stores a new entry. The chain guarantees entries arrive
	// in strictly increasing round order.
	Append(e *Entry) error
	// Get returns the entry for an exact round.
	Get(round uint64) (*Entry, bool)
	// From returns the earliest entry with Round >= round.
	From(round uint64) (*Entry, bool)
	// Latest returns the highest-round entry.
	Latest() (*Entry, bool)
	// Len returns the number of stored entries.
	Len() int
}

// Pruner is an optional Store extension for checkpoint compaction:
// a store that can drop a verified prefix of the chain.
type Pruner interface {
	// DropBefore removes every entry with Round < round.
	DropBefore(round uint64) error
}

// Anchored is an optional Store extension that persists the
// checkpoint anchor — the round of the first retained entry after a
// compaction — so a reopened chain remembers where Verify roots.
type Anchored interface {
	// AnchorRound returns the persisted anchor, if any.
	AnchorRound() (uint64, bool)
	// SetAnchor durably records the anchor.
	SetAnchor(round uint64) error
}

// MemStore is the default in-memory Store: a round-ordered slice.
type MemStore struct {
	entries []*Entry
}

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Append implements Store.
func (s *MemStore) Append(e *Entry) error {
	if n := len(s.entries); n > 0 && e.Round <= s.entries[n-1].Round {
		return fmt.Errorf("beacon: append round %d after round %d", e.Round, s.entries[n-1].Round)
	}
	s.entries = append(s.entries, e)
	return nil
}

// Get implements Store.
func (s *MemStore) Get(round uint64) (*Entry, bool) {
	if e, ok := s.From(round); ok && e.Round == round {
		return e, true
	}
	return nil, false
}

// From implements Store.
func (s *MemStore) From(round uint64) (*Entry, bool) {
	i := sort.Search(len(s.entries), func(i int) bool { return s.entries[i].Round >= round })
	if i == len(s.entries) {
		return nil, false
	}
	return s.entries[i], true
}

// Latest implements Store.
func (s *MemStore) Latest() (*Entry, bool) {
	if len(s.entries) == 0 {
		return nil, false
	}
	return s.entries[len(s.entries)-1], true
}

// Len implements Store.
func (s *MemStore) Len() int { return len(s.entries) }

// DropBefore implements Pruner.
func (s *MemStore) DropBefore(round uint64) error {
	i := sort.Search(len(s.entries), func(i int) bool { return s.entries[i].Round >= round })
	s.entries = append(s.entries[:0:0], s.entries[i:]...)
	return nil
}

// Chain is a node's replica of the beacon chain: the verification
// context (group, server keys, genesis) plus a Store. All methods are
// safe for concurrent use, so an HTTP serving goroutine can read while
// the protocol engine appends.
type Chain struct {
	g       crypto.Group
	pubs    []crypto.Element
	genesis Value

	mu    sync.RWMutex
	store Store

	// anchor, when anchored, is the round of the chain's checkpoint:
	// the first retained entry after a prefix compaction (or a
	// BootstrapFrom). Verify roots trust at the anchor entry — its
	// internal consistency (m share signatures, value recompute) is
	// checked but its Prev link points at a discarded prefix and is
	// trusted — and verifies linkage onward from there.
	anchor   uint64
	anchored bool
}

// NewChain creates a chain over an empty in-memory store.
func NewChain(g crypto.Group, serverPubs []crypto.Element, genesis Value) *Chain {
	return NewChainWithStore(g, serverPubs, genesis, NewMemStore())
}

// NewChainWithStore creates a chain over the given store. Entries
// already present (e.g. loaded by a KVStore) are trusted as-is;
// call Verify to re-check them.
func NewChainWithStore(g crypto.Group, serverPubs []crypto.Element, genesis Value, store Store) *Chain {
	c := &Chain{g: g, pubs: serverPubs, genesis: genesis, store: store}
	if a, ok := store.(Anchored); ok {
		if r, ok := a.AnchorRound(); ok {
			c.anchor, c.anchored = r, true
		}
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
	if n := c.store.Len(); n > 0 {
		return fmt.Errorf("beacon: rebind of a chain with %d entries", n)
	}
	c.genesis = genesis
	c.anchored = false
	return nil
}

// RebindTrusted replaces the genesis value even when entries exist.
// It exists for the restart path: a server reopening its durable
// store holds entries it verified before persisting them, and the
// resumed session's genesis is recomputed from the restored snapshot's
// certified schedule digest. Trusting one's own disk here matches
// NewChainWithStore's contract ("entries already present are trusted
// as-is"); Verify still re-checks lineage from the new genesis, or
// from the checkpoint anchor when the prefix was compacted away.
func (c *Chain) RebindTrusted(genesis Value) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.genesis = genesis
}

// ResetTrusted drops every stored entry and rebinds the chain to a new
// genesis — the established-replica re-sync path: a client adopting a
// certified session snapshot discards its (possibly diverged) chain
// replica and resumes appending from the snapshot's head value. The
// store must support pruning; both MemStore and KVStore do.
func (c *Chain) ResetTrusted(genesis Value) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if latest, ok := c.store.Latest(); ok {
		p, okp := c.store.(Pruner)
		if !okp {
			return fmt.Errorf("beacon: store %T cannot reset", c.store)
		}
		if err := p.DropBefore(latest.Round + 1); err != nil {
			return err
		}
	}
	c.genesis = genesis
	c.anchored = false
	return nil
}

// Anchor returns the checkpoint anchor round, if the chain has one.
func (c *Chain) Anchor() (uint64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.anchor, c.anchored
}

// BootstrapFrom seeds an empty chain with a checkpoint entry obtained
// from a peer, so a node can join (or catch up to) a long-lived chain
// without replaying every entry from genesis. The entry's internal
// consistency — all m share signatures over (prev, round) and the
// value recomputation — is verified, so at least one honest server
// endorsed its lineage; its Prev link itself is trusted as the
// checkpoint boundary. The entry becomes the chain's anchor.
func (c *Chain) BootstrapFrom(e *Entry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e == nil {
		return errors.New("beacon: nil checkpoint entry")
	}
	if n := c.store.Len(); n > 0 {
		return fmt.Errorf("beacon: bootstrap of a chain with %d entries", n)
	}
	if err := VerifyEntry(c.g, c.pubs, e.Prev, e); err != nil {
		return fmt.Errorf("beacon: checkpoint entry %d: %w", e.Round, err)
	}
	if err := c.store.Append(e); err != nil {
		return err
	}
	return c.setAnchorLocked(e.Round)
}

// CompactBefore drops every entry with Round < round from the store
// (which must implement Pruner) and anchors verification at the first
// retained entry. A caller checkpoints a long chain this way — e.g.
// retaining the last few epochs — so neither storage nor Verify cost
// grows with session lifetime. Compaction never drops the newest
// entry: an empty suffix is refused.
func (c *Chain) CompactBefore(round uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.store.(Pruner)
	if !ok {
		return fmt.Errorf("beacon: store %T cannot compact", c.store)
	}
	first, ok := c.store.From(round)
	if !ok {
		return fmt.Errorf("beacon: compacting before round %d would empty the chain", round)
	}
	if err := p.DropBefore(first.Round); err != nil {
		return err
	}
	return c.setAnchorLocked(first.Round)
}

// setAnchorLocked records the anchor in memory and, when the store
// supports it, durably.
func (c *Chain) setAnchorLocked(round uint64) error {
	c.anchor, c.anchored = round, true
	if a, ok := c.store.(Anchored); ok {
		return a.SetAnchor(round)
	}
	return nil
}

// NumServers returns the number of share contributors per entry.
func (c *Chain) NumServers() int { return len(c.pubs) }

// Head returns the value the next entry must chain from: the latest
// entry's value, or the genesis value for an empty chain.
func (c *Chain) Head() Value {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.headLocked()
}

func (c *Chain) headLocked() Value {
	if e, ok := c.store.Latest(); ok {
		return e.Value
	}
	return c.genesis
}

// Latest returns the newest entry, or nil for an empty chain.
func (c *Chain) Latest() *Entry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if e, ok := c.store.Latest(); ok {
		return e
	}
	return nil
}

// Get returns the entry for an exact round, or nil.
func (c *Chain) Get(round uint64) *Entry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if e, ok := c.store.Get(round); ok {
		return e
	}
	return nil
}

// From returns the earliest entry with Round >= round, or nil.
func (c *Chain) From(round uint64) *Entry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if e, ok := c.store.From(round); ok {
		return e
	}
	return nil
}

// Len returns the number of chain entries.
func (c *Chain) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.store.Len()
}

// Append verifies e against the current head and stores it. The entry
// must chain from the head value and carry a round beyond the latest.
func (c *Chain) Append(e *Entry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if latest, ok := c.store.Latest(); ok && e != nil && e.Round <= latest.Round {
		return fmt.Errorf("beacon: append round %d at or before head round %d", e.Round, latest.Round)
	}
	if err := VerifyEntry(c.g, c.pubs, c.headLocked(), e); err != nil {
		return err
	}
	return c.store.Append(e)
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
	if e == nil {
		return errors.New("beacon: nil entry")
	}
	if latest, ok := c.store.Latest(); ok && e.Round <= latest.Round {
		return fmt.Errorf("beacon: append round %d at or before head round %d", e.Round, latest.Round)
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
	return c.store.Append(e)
}

// AppendShares builds, verifies, and appends the entry for round from
// a complete share set, returning the stored entry.
func (c *Chain) AppendShares(round uint64, shares [][]byte) (*Entry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if latest, ok := c.store.Latest(); ok && round <= latest.Round {
		return nil, fmt.Errorf("beacon: append round %d at or before head round %d", round, latest.Round)
	}
	e := NewEntry(round, c.headLocked(), shares)
	if err := VerifyEntry(c.g, c.pubs, e.Prev, e); err != nil {
		return nil, err
	}
	if err := c.store.Append(e); err != nil {
		return nil, err
	}
	return e, nil
}

// Verify re-checks the entire retained chain: every link, every
// share. It detects any after-the-fact tampering with stored entries.
// On an unanchored chain verification starts at genesis; on a
// checkpointed chain it roots at the anchor entry, whose internal
// consistency is checked but whose Prev link (into the compacted-away
// prefix) is trusted.
func (c *Chain) Verify() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	prev := c.genesis
	next := uint64(0)
	if c.anchored {
		e, ok := c.store.Get(c.anchor)
		if !ok {
			return fmt.Errorf("beacon: anchor entry %d missing", c.anchor)
		}
		if err := VerifyEntry(c.g, c.pubs, e.Prev, e); err != nil {
			return fmt.Errorf("beacon: anchor entry %d: %w", c.anchor, err)
		}
		prev = e.Value
		next = e.Round + 1
	}
	for {
		e, ok := c.store.From(next)
		if !ok {
			return nil
		}
		if err := VerifyEntry(c.g, c.pubs, prev, e); err != nil {
			return err
		}
		prev = e.Value
		next = e.Round + 1
	}
}

// Source supplies remote chain entries for catchup. The HTTP client in
// httpapi.go implements it against cmd/dissentd's beacon endpoints.
type Source interface {
	// Latest returns the source's newest entry, or ErrNotFound when
	// the source chain is empty.
	Latest() (*Entry, error)
	// From returns the source's earliest entry with Round >= round, or
	// ErrNotFound when none exists.
	From(round uint64) (*Entry, error)
}

// BatchSource is an optional Source extension delivering a page of
// entries per call. Sync prefers it, turning catchup from one round
// trip per entry into one per page — the difference between 10^6 and
// ~4000 requests when catching up from round 10^6.
type BatchSource interface {
	Source
	// Range returns up to max entries with Round >= from, in
	// increasing round order. An empty slice means no entries remain.
	Range(from uint64, max int) ([]*Entry, error)
}

// syncPageSize bounds entries fetched per BatchSource round trip.
const syncPageSize = 256

// RangeFrom returns up to max stored entries with Round >= round, in
// increasing round order (the serving side of BatchSource).
func (c *Chain) RangeFrom(round uint64, max int) []*Entry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*Entry
	for len(out) < max {
		e, ok := c.store.From(round)
		if !ok {
			break
		}
		out = append(out, e)
		round = e.Round + 1
	}
	return out
}

// Sync catches this chain up to src: entries past the local head are
// fetched in order, verified, and appended. It returns the number of
// entries added. A node that missed any number of rounds converges to
// the source's head as long as the source is honest; a tampered source
// entry fails verification and aborts the sync.
func (c *Chain) Sync(src Source) (int, error) {
	remote, err := src.Latest()
	if errors.Is(err, ErrNotFound) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	batch, _ := src.(BatchSource)
	added := 0
	for {
		next := uint64(0)
		if latest := c.Latest(); latest != nil {
			if latest.Round >= remote.Round {
				return added, nil
			}
			next = latest.Round + 1
		}
		var entries []*Entry
		if batch != nil {
			page, err := batch.Range(next, syncPageSize)
			if err != nil && !errors.Is(err, ErrNotFound) {
				return added, err
			}
			entries = page
		} else {
			e, err := src.From(next)
			if errors.Is(err, ErrNotFound) {
				return added, nil
			}
			if err != nil {
				return added, err
			}
			entries = []*Entry{e}
		}
		if len(entries) == 0 {
			return added, nil
		}
		for _, e := range entries {
			if err := c.Append(e); err != nil {
				return added, fmt.Errorf("beacon: sync round %d: %w", e.Round, err)
			}
			added++
		}
	}
}
