// Package store implements the embedded durable key-value store
// shared by the beacon chain, the certified roster-update log, and
// server restart snapshots.
//
// The design is deliberately minimal: a single append-only file of
// JSON lines (one record per mutation), fsynced before the in-memory
// index accepts the mutation. A torn final line is the artifact of a
// crash mid-append and is truncated away; garbage anywhere else is
// content damage and refuses to open. Reads are served from the
// in-memory index, so the file is only touched on writes and at open.
//
// Records are namespaced by bucket so one file can back several
// subsystems (the beacon chain, the roster log, the restart snapshot)
// without their key spaces colliding. The log grows with every
// overwrite and delete; Compact rewrites it down to the live set
// through a temp-file rename, preserving crash safety.
package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// ErrCorrupt marks mid-file garbage in a store file — content damage,
// as opposed to I/O or permission errors opening it. Callers archive
// corrupt files and start fresh but abort on anything else.
var ErrCorrupt = errors.New("store: corrupt store file")

// record is one logged mutation. A put carries the value; a delete
// sets D and carries none. Replaying the log in order rebuilds the
// index: last writer wins.
type record struct {
	B string `json:"b"`           // bucket
	K string `json:"k"`           // key
	V []byte `json:"v,omitempty"` // value (base64 in JSON); nil for deletes
	D bool   `json:"d,omitempty"` // delete marker
}

// KV is a crash-safe embedded key-value store over one append-only
// log file. All methods are safe for concurrent use. The zero value is
// not usable; call Open.
type KV struct {
	mu   sync.RWMutex
	file *os.File
	path string
	idx  map[string]map[string][]byte // bucket -> key -> value
	recs int                          // total records in the log (live + shadowed)
}

// Open opens (creating if needed) the store file at path and replays
// its log into the in-memory index. A torn final line — the artifact
// of a crash mid-append — is truncated away and loading continues;
// garbage anywhere else returns an error wrapping ErrCorrupt. A valid
// final line that lost its newline to a crash is completed so the next
// append lands on its own line.
func Open(path string) (*KV, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o600)
	if err != nil {
		return nil, err
	}
	kv := &KV{file: f, path: path, idx: make(map[string]map[string][]byte)}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	line := 0
	goodEnd := int64(0) // byte offset just past the last valid line
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		var r record
		lineErr := json.Unmarshal(raw, &r)
		if lineErr == nil && r.K == "" {
			lineErr = errors.New("record missing key")
		}
		if lineErr != nil {
			if !sc.Scan() && sc.Err() == nil {
				// Final line: a torn write from a crash mid-append.
				// Drop it and keep the valid prefix.
				if err := f.Truncate(goodEnd); err != nil {
					f.Close()
					return nil, err
				}
				if _, err := f.Seek(goodEnd, io.SeekStart); err != nil {
					f.Close()
					return nil, err
				}
				return kv, nil
			}
			f.Close()
			return nil, fmt.Errorf("%w: %s line %d: %v", ErrCorrupt, path, line, lineErr)
		}
		kv.apply(r)
		kv.recs++
		goodEnd += int64(len(raw)) + 1
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, err
	}
	// A valid final line may have lost its newline to a crash between
	// the JSON bytes and the '\n'. Complete it, or the next append
	// would concatenate onto it and turn a good record into "garbage"
	// a later reopen truncates away.
	if info, err := f.Stat(); err == nil && info.Size() > 0 {
		last := make([]byte, 1)
		if _, err := f.ReadAt(last, info.Size()-1); err == nil && last[0] != '\n' {
			if _, err := f.Write([]byte("\n")); err != nil {
				f.Close()
				return nil, err
			}
		}
	}
	return kv, nil
}

// apply folds one record into the index.
func (kv *KV) apply(r record) {
	if r.D {
		if b := kv.idx[r.B]; b != nil {
			delete(b, r.K)
			if len(b) == 0 {
				delete(kv.idx, r.B)
			}
		}
		return
	}
	b := kv.idx[r.B]
	if b == nil {
		b = make(map[string][]byte)
		kv.idx[r.B] = b
	}
	b[r.K] = append([]byte(nil), r.V...)
}

// append writes one record and fsyncs it before the index accepts it,
// so an acknowledged mutation survives a crash.
func (kv *KV) append(r record) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if _, err := kv.file.Write(append(data, '\n')); err != nil {
		return err
	}
	if err := kv.file.Sync(); err != nil {
		return err
	}
	kv.apply(r)
	kv.recs++
	return nil
}

// Put durably stores value under (bucket, key), overwriting any
// previous value. The value is copied; the caller may reuse it.
func (kv *KV) Put(bucket, key string, value []byte) error {
	if key == "" {
		return errors.New("store: empty key")
	}
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.file == nil {
		return errors.New("store: closed")
	}
	return kv.append(record{B: bucket, K: key, V: append([]byte(nil), value...)})
}

// Get returns the value under (bucket, key). The returned slice is a
// copy.
func (kv *KV) Get(bucket, key string) ([]byte, bool) {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	v, ok := kv.idx[bucket][key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Delete durably removes (bucket, key); removing an absent key is a
// no-op that writes nothing.
func (kv *KV) Delete(bucket, key string) error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.file == nil {
		return errors.New("store: closed")
	}
	if _, ok := kv.idx[bucket][key]; !ok {
		return nil
	}
	return kv.append(record{B: bucket, K: key, D: true})
}

// List returns the keys of bucket in sorted order. Fixed-width numeric
// keys therefore list in numeric order.
func (kv *KV) List(bucket string) []string {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	b := kv.idx[bucket]
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Len returns the number of live keys across all buckets.
func (kv *KV) Len() int {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	n := 0
	for _, b := range kv.idx {
		n += len(b)
	}
	return n
}

// Path returns the store's file path.
func (kv *KV) Path() string { return kv.path }

// Compact rewrites the log down to the live record set through a
// temp-file rename, reclaiming the space held by shadowed overwrites
// and deletes. The rename is atomic on POSIX filesystems, so a crash
// mid-compaction leaves either the old or the new file intact.
func (kv *KV) Compact() error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.file == nil {
		return errors.New("store: closed")
	}
	tmpPath := kv.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(tmp)
	live := 0
	buckets := make([]string, 0, len(kv.idx))
	for b := range kv.idx {
		buckets = append(buckets, b)
	}
	sort.Strings(buckets)
	for _, b := range buckets {
		keys := make([]string, 0, len(kv.idx[b]))
		for k := range kv.idx[b] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			data, err := json.Marshal(record{B: b, K: k, V: kv.idx[b][k]})
			if err != nil {
				tmp.Close()
				os.Remove(tmpPath)
				return err
			}
			if _, err := w.Write(append(data, '\n')); err != nil {
				tmp.Close()
				os.Remove(tmpPath)
				return err
			}
			live++
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return err
	}
	if err := os.Rename(tmpPath, kv.path); err != nil {
		os.Remove(tmpPath)
		return err
	}
	// Fsync the directory so the rename itself is durable.
	if dir, err := os.Open(filepath.Dir(kv.path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	old := kv.file
	f, err := os.OpenFile(kv.path, os.O_RDWR|os.O_APPEND, 0o600)
	if err != nil {
		return err
	}
	old.Close()
	kv.file = f
	kv.recs = live
	return nil
}

// Garbage returns the number of shadowed log records (total minus
// live) — the caller's compaction heuristic input.
func (kv *KV) Garbage() int {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	n := kv.recs
	for _, b := range kv.idx {
		n -= len(b)
	}
	return n
}

// Reset durably drops every record — the new-session path when a
// store file is reused across protocol sessions whose round numbers
// restart.
func (kv *KV) Reset() error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.file == nil {
		return errors.New("store: closed")
	}
	if err := kv.file.Truncate(0); err != nil {
		return err
	}
	if _, err := kv.file.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if err := kv.file.Sync(); err != nil {
		return err
	}
	kv.idx = make(map[string]map[string][]byte)
	kv.recs = 0
	return nil
}

// Close releases the underlying file. Further mutations fail; reads
// keep serving the in-memory index.
func (kv *KV) Close() error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.file == nil {
		return nil
	}
	err := kv.file.Close()
	kv.file = nil
	return err
}
