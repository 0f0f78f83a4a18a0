package beacon

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// KV is the embedded key-value surface the beacon adapter persists
// through — satisfied by *store.KV. Mutations must be durable before
// they return (the KV fsyncs each Put/Delete).
type KV interface {
	Put(bucket, key string, value []byte) error
	Get(bucket, key string) ([]byte, bool)
	List(bucket string) []string
	Delete(bucket, key string) error
}

// anchorKey names the checkpoint anchor record in the meta bucket.
const anchorKey = "anchor"

// roundKey renders a round number as a fixed-width key so the KV's
// sorted key listing is numeric round order.
func roundKey(r uint64) string { return fmt.Sprintf("%020d", r) }

// KVStore adapts one bucket of an embedded KV into a beacon Store
// mirrored in memory: writes reach the KV (which fsyncs) before the
// mirror accepts them, and reads are served from the mirror. It
// supports checkpoint compaction — DropBefore deletes a verified
// prefix — and persists the resulting verification anchor in a sibling
// meta bucket, so a reopened chain remembers where Verify roots.
type KVStore struct {
	kv     KV
	bucket string
	meta   string
	mem    MemStore
}

// NewKVStore loads the bucket's entries (sorted keys = round order)
// into the mirror. Entries are trusted as loaded; wrap the store in a
// Chain and call Verify to re-check them.
func NewKVStore(kv KV, bucket string) (*KVStore, error) {
	s := &KVStore{kv: kv, bucket: bucket, meta: bucket + ".meta"}
	for _, k := range kv.List(bucket) {
		raw, ok := kv.Get(bucket, k)
		if !ok {
			continue
		}
		var j entryJSON
		if err := json.Unmarshal(raw, &j); err != nil {
			return nil, fmt.Errorf("beacon: kv entry %s: %w", k, err)
		}
		e, err := decodeEntry(j)
		if err != nil {
			return nil, err
		}
		if err := s.mem.Append(e); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Append implements Store: the entry is durably stored before the
// mirror accepts it.
func (s *KVStore) Append(e *Entry) error {
	data, err := json.Marshal(encodeEntry(e))
	if err != nil {
		return err
	}
	if err := s.kv.Put(s.bucket, roundKey(e.Round), data); err != nil {
		return err
	}
	return s.mem.Append(e)
}

// Get implements Store.
func (s *KVStore) Get(round uint64) (*Entry, bool) { return s.mem.Get(round) }

// From implements Store.
func (s *KVStore) From(round uint64) (*Entry, bool) { return s.mem.From(round) }

// Latest implements Store.
func (s *KVStore) Latest() (*Entry, bool) { return s.mem.Latest() }

// Len implements Store.
func (s *KVStore) Len() int { return s.mem.Len() }

// DropBefore implements Pruner: entries with Round < round are deleted
// from the KV and the mirror.
func (s *KVStore) DropBefore(round uint64) error {
	cut := roundKey(round)
	for _, k := range s.kv.List(s.bucket) {
		if k >= cut {
			break
		}
		if err := s.kv.Delete(s.bucket, k); err != nil {
			return err
		}
	}
	return s.mem.DropBefore(round)
}

// AnchorRound implements Anchored.
func (s *KVStore) AnchorRound() (uint64, bool) {
	raw, ok := s.kv.Get(s.meta, anchorKey)
	if !ok {
		return 0, false
	}
	r, err := strconv.ParseUint(string(raw), 10, 64)
	if err != nil {
		return 0, false
	}
	return r, true
}

// SetAnchor implements Anchored.
func (s *KVStore) SetAnchor(round uint64) error {
	return s.kv.Put(s.meta, anchorKey, []byte(strconv.FormatUint(round, 10)))
}
