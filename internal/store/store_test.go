package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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

// TestHealsTornFinalLine: a crash mid-append leaves a torn final line;
// reopening truncates it away, keeps the valid prefix, and the store
// accepts new writes that a further reopen sees intact.
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

	// Simulate a crash mid-append: a partial JSON line at the end.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"b":"b","k":"003","v":"YW`); err != nil {
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

// TestHealsMissingFinalNewline: a crash between the JSON bytes and the
// trailing '\n' leaves a valid line without its newline. Reopening
// keeps the record and completes the newline so the next append lands
// on its own line.
func TestHealsMissingFinalNewline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.kv")
	kv, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, kv, "b", "001", "v1")
	mustPut(t, kv, "b", "002", "v2")
	kv.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if data[len(data)-1] != '\n' {
		t.Fatal("fixture: expected trailing newline")
	}
	if err := os.WriteFile(path, data[:len(data)-1], 0o600); err != nil {
		t.Fatal(err)
	}

	kv, err = Open(path)
	if err != nil {
		t.Fatalf("reopen after chopped newline: %v", err)
	}
	if n := len(kv.List("b")); n != 2 {
		t.Fatalf("after reopen: %d keys, want 2", n)
	}
	mustPut(t, kv, "b", "003", "v3")
	kv.Close()

	kv, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if n := len(kv.List("b")); n != 3 {
		t.Fatalf("after reopen: %d keys, want 3", n)
	}
	wantGet(t, kv, "b", "002", "v2")
	wantGet(t, kv, "b", "003", "v3")
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

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append([]byte("{garbage}\n"), data...), 0o600); err != nil {
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
