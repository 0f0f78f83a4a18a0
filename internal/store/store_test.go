package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func mustPut(t *testing.T, kv *KV, bucket, key, val string) {
	t.Helper()
	if err := kv.Put(bucket, key, []byte(val)); err != nil {
		t.Fatalf("Put(%s,%s): %v", bucket, key, err)
	}
}

func wantGet(t *testing.T, kv *KV, bucket, key, val string) {
	t.Helper()
	got, ok := kv.Get(bucket, key)
	if !ok {
		t.Fatalf("Get(%s,%s): missing", bucket, key)
	}
	if string(got) != val {
		t.Fatalf("Get(%s,%s) = %q, want %q", bucket, key, got, val)
	}
}

func TestPutGetDeleteAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.kv")
	kv, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, kv, "roster", "001", "update-1")
	mustPut(t, kv, "roster", "002", "update-2")
	mustPut(t, kv, "beacon", "001", "entry-1")
	mustPut(t, kv, "roster", "001", "update-1b") // overwrite
	if err := kv.Delete("beacon", "001"); err != nil {
		t.Fatal(err)
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}

	kv, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	wantGet(t, kv, "roster", "001", "update-1b")
	wantGet(t, kv, "roster", "002", "update-2")
	if _, ok := kv.Get("beacon", "001"); ok {
		t.Fatal("deleted key survived reopen")
	}
	if got := kv.List("roster"); !reflect.DeepEqual(got, []string{"001", "002"}) {
		t.Fatalf("List(roster) = %v", got)
	}
	if kv.Len() != 2 {
		t.Fatalf("Len = %d, want 2", kv.Len())
	}
}

// TestHealsTornFinalLine: a crash mid-append leaves a torn final
// record; reopening truncates it away, keeps the valid prefix, and the
// store accepts new writes that a further reopen sees intact.
func TestHealsTornFinalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.kv")
	kv, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustPut(t, kv, "b", fmt.Sprintf("%03d", i), fmt.Sprintf("v%d", i))
	}
	kv.Close()

	// Simulate a crash mid-append: the first half of a record.
	rec := appendRecord(nil, &record{bucket: "b", key: "003", value: []byte("v3")})
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec[:len(rec)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	kv, err = Open(path)
	if err != nil {
		t.Fatalf("reopen after torn write: %v", err)
	}
	if n := len(kv.List("b")); n != 3 {
		t.Fatalf("after healing: %d keys, want 3", n)
	}
	wantGet(t, kv, "b", "002", "v2")
	// The healed store must accept the write the crash interrupted.
	mustPut(t, kv, "b", "003", "v3")
	kv.Close()

	kv, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if n := len(kv.List("b")); n != 4 {
		t.Fatalf("after heal+append+reopen: %d keys, want 4", n)
	}
	wantGet(t, kv, "b", "003", "v3")
}

// TestTruncatedFinalRecordAtEveryOffset: cutting the file at every
// offset inside its final record — frame or body — reopens with exactly
// the earlier records, and a Put after that reopen reads back after
// another reopen.
func TestTruncatedFinalRecordAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.kv")
	kv, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, kv, "b", "001", "v1")
	mustPut(t, kv, "b", "002", "v2")
	prefix, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, kv, "b", "003", "the quick brown fox jumps")
	kv.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := int(prefix.Size()); cut < len(data); cut++ {
		p := filepath.Join(dir, fmt.Sprintf("cut-%d.kv", cut))
		if err := os.WriteFile(p, data[:cut], 0o600); err != nil {
			t.Fatal(err)
		}
		kv, err := Open(p)
		if err != nil {
			t.Fatalf("cut at %d: reopen: %v", cut, err)
		}
		if got := kv.List("b"); !reflect.DeepEqual(got, []string{"001", "002"}) {
			t.Fatalf("cut at %d: keys %v, want [001 002]", cut, got)
		}
		mustPut(t, kv, "b", "004", "v4")
		kv.Close()
		if kv, err = Open(p); err != nil {
			t.Fatalf("cut at %d: second reopen: %v", cut, err)
		}
		wantGet(t, kv, "b", "002", "v2")
		wantGet(t, kv, "b", "004", "v4")
		kv.Close()
	}
}

// TestChangedValueByteRefusesToOpen: a record's checksum covers its
// value, so one changed byte inside a mid-file record is content damage.
func TestChangedValueByteRefusesToOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.kv")
	kv, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, kv, "b", "001", "v1")
	mustPut(t, kv, "b", "002", "the quick brown fox jumps")
	mustPut(t, kv, "b", "003", "v3")
	kv.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte("the quick"))
	if i < 0 {
		t.Fatal("fixture: value not found in the file")
	}
	data[i] = 'x'
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if kv, err := Open(path); !errors.Is(err, ErrCorrupt) {
		if err == nil {
			v, _ := kv.Get("b", "002")
			t.Fatalf("open with a changed value byte succeeded; Get = %q", v)
		}
		t.Fatalf("open with a changed value byte: err = %v, want ErrCorrupt", err)
	}
}

// TestDamagedLengthWordRefusesToOpen: a length word whose damage makes
// the first of three records overrun the file is content damage, not a
// torn tail — intact records follow it — so the open fails and the file
// is left as it was, every record still in it.
func TestDamagedLengthWordRefusesToOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.kv")
	kv, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, kv, "b", "001", "v1")
	mustPut(t, kv, "b", "002", "v2")
	mustPut(t, kv, "b", "003", "v3")
	kv.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(fileHeader)] ^= 0x80 // the high byte of the first record's length
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if kv, err := Open(path); !errors.Is(err, ErrCorrupt) {
		if err == nil {
			t.Fatalf("open with a damaged length word succeeded; keys %v", kv.List("b"))
		}
		t.Fatalf("open with a damaged length word: err = %v, want ErrCorrupt", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
		t.Fatalf("refused file changed: %d bytes, want %d", len(after), len(data))
	}
}

// TestRefusesJSONLinesLog: a file in the JSON-lines layout an earlier
// build wrote is refused with an error naming both formats, and left
// byte-identical.
func TestRefusesJSONLinesLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.kv")
	old := []byte(`{"b":"roster","k":"001","v":"dXBkYXRlLTE="}` + "\n" +
		`{"b":"beacon","k":"001","v":"ZW50cnktMQ=="}` + "\n")
	if err := os.WriteFile(path, old, 0o600); err != nil {
		t.Fatal(err)
	}
	_, err := Open(path)
	if err == nil {
		t.Fatal("JSON-lines log opened")
	}
	for _, w := range []string{"JSON lines", strings.TrimSpace(fileHeader)} {
		if !strings.Contains(err.Error(), w) {
			t.Errorf("open error %q does not name %q", err, w)
		}
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, old) {
		t.Fatalf("refused file changed:\n%q\nwant\n%q", after, old)
	}
}

func TestMidFileGarbageRefusesToOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.kv")
	kv, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, kv, "b", "001", "v1")
	mustPut(t, kv, "b", "002", "v2")
	kv.Close()

	// A well-framed record whose checksum fails, with records after it.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	garbage := appendRecord(nil, &record{bucket: "b", key: "000", value: []byte("v0")})
	garbage[len(garbage)-1] ^= 0xff
	data = append(append([]byte(fileHeader), garbage...), data[len(fileHeader):]...)
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with mid-file garbage: err = %v, want ErrCorrupt", err)
	}
}

func TestCompactDropsShadowedRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.kv")
	kv, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mustPut(t, kv, "b", "hot", fmt.Sprintf("v%d", i))
	}
	mustPut(t, kv, "b", "cold", "keep")
	if err := kv.Delete("b", "hot"); err != nil {
		t.Fatal(err)
	}
	if g := kv.Garbage(); g != 11 { // 9 shadowed puts + shadowed final put + delete marker
		t.Fatalf("Garbage = %d, want 11", g)
	}
	before, _ := os.Stat(path)
	if err := kv.Compact(); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink the log: %d -> %d", before.Size(), after.Size())
	}
	if g := kv.Garbage(); g != 0 {
		t.Fatalf("Garbage after compact = %d", g)
	}
	// The store writes through the compacted file, now at path.
	live, err := kv.file.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(live, after) {
		t.Fatal("the store's live file is not the compacted file at its path")
	}
	if _, err := os.Stat(path + ".compact"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	// The compacted store keeps working and survives reopen.
	mustPut(t, kv, "b", "new", "v")
	kv.Close()
	kv, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	wantGet(t, kv, "b", "cold", "keep")
	wantGet(t, kv, "b", "new", "v")
	if _, ok := kv.Get("b", "hot"); ok {
		t.Fatal("deleted key resurrected by compaction")
	}
}

func TestResetClearsEverything(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.kv")
	kv, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, kv, "b", "001", "v1")
	if err := kv.Reset(); err != nil {
		t.Fatal(err)
	}
	if kv.Len() != 0 {
		t.Fatalf("Len after reset = %d", kv.Len())
	}
	mustPut(t, kv, "b", "002", "v2")
	kv.Close()
	kv, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if _, ok := kv.Get("b", "001"); ok {
		t.Fatal("pre-reset key survived")
	}
	wantGet(t, kv, "b", "002", "v2")
}
