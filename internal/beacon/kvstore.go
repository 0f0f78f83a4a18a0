package beacon

import (
	"fmt"

	"dissent/internal/wire"
)

// KV is the embedded key-value surface the beacon chain persists
// through — satisfied by *store.KV. Mutations must be durable before
// they return (the KV fsyncs each Put/Delete).
type KV interface {
	Put(bucket, key string, value []byte) error
	Get(bucket, key string) ([]byte, bool)
	List(bucket string) []string
	Delete(bucket, key string) error
}

// roundKey renders a round number as a fixed-width key so the KV's
// sorted key listing is numeric round order.
func roundKey(r uint64) string { return fmt.Sprintf("%020d", r) }

// KVStore is one bucket of an embedded KV holding a chain's entries,
// one record per round (Entry.Fields behind the record format byte). Pass it to NewChain: the chain writes each
// new entry here (one fsynced Put) before accepting it.
type KVStore struct {
	kv     KV
	bucket string
	loaded []*Entry // the bucket's entries at open, until NewChain adopts them
}

// NewKVStore loads the bucket's entries (sorted keys = round order).
// An entry that does not decode or breaks round order refuses the
// open: the bucket is input from disk. Loaded entries are otherwise
// trusted; wrap the store in a Chain and call Verify to re-check them.
func NewKVStore(kv KV, bucket string) (*KVStore, error) {
	s := &KVStore{kv: kv, bucket: bucket}
	for _, k := range kv.List(bucket) {
		raw, ok := kv.Get(bucket, k)
		if !ok {
			continue
		}
		e := new(Entry)
		if err := wire.DecodeRecord(raw, e); err != nil {
			return nil, fmt.Errorf("beacon: kv entry %s: %w", k, err)
		}
		if n := len(s.loaded); n > 0 && e.Round <= s.loaded[n-1].Round {
			return nil, fmt.Errorf("beacon: kv entry %s: round %d after round %d", k, e.Round, s.loaded[n-1].Round)
		}
		s.loaded = append(s.loaded, e)
	}
	return s, nil
}

// put durably stores one entry.
func (s *KVStore) put(e *Entry) error {
	return s.kv.Put(s.bucket, roundKey(e.Round), wire.EncodeRecord(e))
}

// clear deletes every entry from the bucket.
func (s *KVStore) clear() error {
	for _, k := range s.kv.List(s.bucket) {
		if err := s.kv.Delete(s.bucket, k); err != nil {
			return err
		}
	}
	return nil
}
