// Package store implements the embedded durable key-value store
// shared by the beacon chain, the certified roster-update log, and
// server restart snapshots.
//
// The design is deliberately minimal: one append-only log file, fsynced
// after each mutation before the in-memory index accepts it, so reads
// never touch the file. The file starts with fileHeader, naming the
// format. Each record after it is a frame of two u32 words — the body's
// length and its CRC-32C (Castagnoli) — and the body, wire.EncodeRecord
// of {delete flag, bucket, key, value}. Only the last record can be
// torn by a crash: its frame or body is incomplete and no intact record
// follows it, or its checksum fails and no byte follows it. Open
// truncates it away. Any other record that fails its checksum, overruns
// the file ahead of an intact record (a damaged length word), or does
// not decode is content damage (ErrCorrupt), and a file with another
// header — an earlier build's JSON-lines log starts with '{' — is
// refused naming both formats; in neither case is the file changed.
//
// Buckets namespace the keys, so one file backs the beacon chain, the
// roster log and the restart snapshot. Compact rewrites the log down
// to the live set through a temp-file rename.
package store

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"dissent/internal/wire"
)

// Durable is the key-value surface the engines and the beacon chain
// persist through — satisfied by *KV. Mutations must be durable before
// they return.
type Durable interface {
	Put(bucket, key string, value []byte) error
	Get(bucket, key string) ([]byte, bool)
	List(bucket string) []string
	Delete(bucket, key string) error
}

// ErrCorrupt marks content damage in a store file, as opposed to I/O or
// permission errors opening it. Open fails with it; nothing repairs or
// replaces the file.
var ErrCorrupt = errors.New("store: corrupt store file")

var errClosed = errors.New("store: closed")

// fileHeader is the first line of every store file: the log format's
// name.
const fileHeader = "dissent-store binary log v1\n"

// frameLen is the length of a record's frame: the body length and its
// CRC-32C, as two u32 words.
const frameLen = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frame precedes each record body.
type frame struct {
	n, sum uint32
}

func (f *frame) Fields(c *wire.Codec) {
	c.U32(&f.n)
	c.U32(&f.sum)
}

// record is one logged mutation. A put carries the value; a delete
// sets del and carries none. Replaying the log in order rebuilds the
// index: last writer wins.
type record struct {
	del         bool
	bucket, key string
	value       []byte
}

func (r *record) Fields(c *wire.Codec) {
	c.Bool(&r.del)
	c.String(&r.bucket)
	c.String(&r.key)
	c.Bytes(&r.value)
}

// appendRecord appends r's frame and body to dst: the one writer of
// records, for appends and compaction alike.
func appendRecord(dst []byte, r *record) []byte {
	body := wire.EncodeRecord(r)
	dst = wire.Append(dst, &frame{n: uint32(len(body)), sum: crc32.Checksum(body, castagnoli)})
	return append(dst, body...)
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
// its log into the in-memory index, one record at a time. A torn last
// record is truncated away and loading continues; content damage
// anywhere else returns an error wrapping ErrCorrupt.
func Open(path string) (*KV, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o600)
	if err != nil {
		return nil, err
	}
	kv := &KV{file: f, path: path, idx: make(map[string]map[string][]byte)}
	if err := kv.load(); err != nil {
		f.Close()
		return nil, err
	}
	return kv, nil
}

// load checks the file header and replays the records after it. An
// empty file, or one holding only part of the header (a crash while
// creating it), gets a fresh header.
func (kv *KV) load() error {
	info, err := kv.file.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	r := bufio.NewReader(io.NewSectionReader(kv.file, 0, size))
	head := make([]byte, min(size, int64(len(fileHeader))))
	if _, err := io.ReadFull(r, head); err != nil {
		return err
	}
	if len(head) < len(fileHeader) && strings.HasPrefix(fileHeader, string(head)) {
		return kv.truncate(0, fileHeader)
	}
	if string(head) != fileHeader {
		format := fmt.Sprintf("%q", head)
		if head[0] == '{' {
			format = "JSON lines (an earlier build's log)"
		}
		return fmt.Errorf("store: %s: file format %s, want %q; delete the file", kv.path, format, strings.TrimSpace(fileHeader))
	}
	off := int64(len(fileHeader)) // just past the last good record
	var fr frame
	var hdr [frameLen]byte
	var body []byte
	for off < size {
		end := off + frameLen
		if end <= size {
			if _, err := io.ReadFull(r, hdr[:]); err != nil {
				return err
			}
			_ = wire.Decode(hdr[:], &fr) // eight bytes always decode
			end += int64(fr.n)
		}
		if end > size {
			intact, err := kv.intactAfter(off, size)
			if err != nil {
				return err
			}
			if intact {
				return fmt.Errorf("%w: %s: record at byte %d overruns the file ahead of an intact record", ErrCorrupt, kv.path, off)
			}
			return kv.truncate(off, "") // torn frame or body
		}
		body = slices.Grow(body[:0], int(fr.n))[:fr.n]
		if _, err := io.ReadFull(r, body); err != nil {
			return err
		}
		if crc32.Checksum(body, castagnoli) != fr.sum {
			if end == size {
				return kv.truncate(off, "") // torn last record
			}
			return fmt.Errorf("%w: %s: record at byte %d fails its checksum", ErrCorrupt, kv.path, off)
		}
		var rec record
		if err := wire.DecodeRecord(body, &rec); err != nil {
			return fmt.Errorf("%w: %s: record at byte %d: %v", ErrCorrupt, kv.path, off, err)
		}
		kv.apply(&rec)
		kv.recs++
		off = end
	}
	return nil
}

// intactAfter reports whether an intact record starts anywhere after
// the record at off, which overruns the file: a frame whose body fits,
// passes its checksum and decodes. A crash tears only the last record,
// so such a record means the overrun is a damaged length word, not a
// torn tail.
func (kv *KV) intactAfter(off, size int64) (bool, error) {
	tail := make([]byte, size-off-1)
	if _, err := kv.file.ReadAt(tail, off+1); err != nil {
		return false, err
	}
	var fr frame
	for p := 0; p+frameLen < len(tail); p++ {
		_ = wire.Decode(tail[p:p+frameLen], &fr) // eight bytes always decode
		body := tail[p+frameLen:]
		if fr.n == 0 || uint64(fr.n) > uint64(len(body)) {
			continue
		}
		body = body[:fr.n]
		if crc32.Checksum(body, castagnoli) == fr.sum && wire.DecodeRecord(body, new(record)) == nil {
			return true, nil
		}
	}
	return false, nil
}

// truncate cuts the file to size, appends tail and fsyncs.
func (kv *KV) truncate(size int64, tail string) error {
	if err := kv.file.Truncate(size); err != nil {
		return err
	}
	if _, err := kv.file.WriteString(tail); err != nil {
		return err
	}
	return kv.file.Sync()
}

// apply folds one record into the index, copying the value: it may
// alias a read buffer or the caller's slice.
func (kv *KV) apply(r *record) {
	b := kv.idx[r.bucket]
	if r.del {
		delete(b, r.key)
		return
	}
	if b == nil {
		b = make(map[string][]byte)
		kv.idx[r.bucket] = b
	}
	b[r.key] = append([]byte(nil), r.value...)
}

// append writes one record and fsyncs it before the index accepts it,
// so an acknowledged mutation survives a crash.
func (kv *KV) append(r *record) error {
	if kv.file == nil {
		return errClosed
	}
	if _, err := kv.file.Write(appendRecord(nil, r)); err != nil {
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
	return kv.append(&record{bucket: bucket, key: key, value: value})
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
	if _, ok := kv.idx[bucket][key]; !ok {
		return nil
	}
	return kv.append(&record{del: true, bucket: bucket, key: key})
}

// List returns the keys of bucket in sorted order. Fixed-width numeric
// keys therefore list in numeric order.
func (kv *KV) List(bucket string) []string {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return slices.Sorted(maps.Keys(kv.idx[bucket]))
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
// mid-compaction leaves either the old or the new file intact. The temp
// file's handle becomes the live file, so from the rename on every
// mutation lands in the file a reopen reads.
func (kv *KV) Compact() error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.file == nil {
		return errClosed
	}
	tmpPath := kv.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_RDWR|os.O_APPEND|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	// A bufio.Writer's error is sticky: Flush reports the first failure.
	w := bufio.NewWriter(tmp)
	w.WriteString(fileHeader)
	var buf []byte
	live := 0
	for _, b := range slices.Sorted(maps.Keys(kv.idx)) {
		for _, k := range slices.Sorted(maps.Keys(kv.idx[b])) {
			buf = appendRecord(buf[:0], &record{bucket: b, key: k, value: kv.idx[b][k]})
			w.Write(buf)
			live++
		}
	}
	err = w.Flush()
	if err == nil {
		err = tmp.Sync()
	}
	if err == nil {
		err = os.Rename(tmpPath, kv.path)
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	kv.file.Close()
	kv.file = tmp
	kv.recs = live
	// Fsync the directory so the rename itself is durable.
	dir, err := os.Open(filepath.Dir(kv.path))
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
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

// Reset durably drops every record, keeping the file header — the
// new-session path when a store file is reused across protocol sessions
// whose round numbers restart.
func (kv *KV) Reset() error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.file == nil {
		return errClosed
	}
	if err := kv.truncate(int64(len(fileHeader)), ""); err != nil {
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
