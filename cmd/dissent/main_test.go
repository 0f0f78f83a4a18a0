package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dissent/dissentcfg"
)

// TestRunRejectsBadInputs checks that every pre-serve failure path
// returns an error instead of starting the client.
func TestRunRejectsBadInputs(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "nope.json")
	badRoster := filepath.Join(dir, "bad-roster.json")
	if err := os.WriteFile(badRoster, []byte(`{"zz": "not-hex-id"}`), 0o644); err != nil {
		t.Fatal(err)
	}

	// A server's key file is refused before the client binds anything:
	// the test holds the -listen address, so a client that got as far
	// as its Host would fail with a different error.
	if _, err := dissentcfg.Generate(dir, dissentcfg.GenerateConfig{
		Servers: 1, Clients: 1, MessageGroup: "modp-512-test", BeaconEpochRounds: 0,
	}); err != nil {
		t.Fatal(err)
	}
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()

	cases := []struct {
		name string
		args []string
		want string // substring of the error ("" = any error)
	}{
		{"unknown flag", []string{"-definitely-not-a-flag"}, ""},
		{"missing group file", []string{"-group", missing}, ""},
		{"missing key file", []string{"-group", missing, "-key", missing}, ""},
		{"server key file", []string{"-group", filepath.Join(dir, "group.json"),
			"-key", filepath.Join(dir, "server-0.key"), "-roster", filepath.Join(dir, "roster.json"),
			"-listen", held.Addr().String()}, "belongs to a server"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%v) = %v, want an error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

func TestBeaconCmdRejectsBadInputs(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "nope.json")
	cases := []struct {
		name string
		args []string
	}{
		{"missing url", []string{}},
		{"unknown flag", []string{"-url", "http://x", "-zzz"}},
		{"missing group file", []string{"-url", "http://127.0.0.1:1", "-group", missing}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := beaconCmd(tc.args, &out); err == nil {
				t.Errorf("beaconCmd(%v) succeeded, want error", tc.args)
			}
		})
	}
}

// TestTraceCmd serves a canned /debug/rounds payload and checks the
// rendered table: slowest-first ordering, -n truncation, and the phase
// columns and flags.
func TestTraceCmd(t *testing.T) {
	payload := `[{"session":"aabbccdd00112233","group":"g1","role":"server","traces":[
		{"round":1,"start":"2026-08-07T10:00:00Z","window_ns":2000000,"pad_ns":300000,"combine_ns":100000,"certify_ns":400000,"total_ns":3000000,"participation":4,"prefetch_hit":true},
		{"round":2,"start":"2026-08-07T10:00:01Z","window_ns":5000000,"pad_ns":200000,"combine_ns":90000,"certify_ns":300000,"total_ns":9000000,"participation":3,"stragglers":1,"failed":true}
	]}]`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/rounds" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, payload)
	}))
	defer srv.Close()

	var out bytes.Buffer
	if err := traceCmd([]string{"-url", srv.URL, "-n", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "SESSION") || !strings.Contains(got, "WINDOW") {
		t.Fatalf("missing table header:\n%s", got)
	}
	// -n 1 keeps only the slowest round (round 2, total 9ms).
	if lines := strings.Count(strings.TrimSpace(got), "\n"); lines != 1 {
		t.Fatalf("want header + 1 row, got %d rows:\n%s", lines, got)
	}
	if !strings.Contains(got, "9ms") || strings.Contains(got, "prefetch") {
		t.Fatalf("want only round 2 (slowest):\n%s", got)
	}
	if !strings.Contains(got, "FAILED") {
		t.Fatalf("failed flag not rendered:\n%s", got)
	}
	if !strings.Contains(got, "aabbccdd") {
		t.Fatalf("session prefix not rendered:\n%s", got)
	}

	out.Reset()
	if err := traceCmd([]string{"-url", srv.URL, "-all"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "prefetch") {
		t.Fatalf("-all must include round 1's prefetch flag:\n%s", got)
	}
}

func TestTraceCmdRejectsBadInputs(t *testing.T) {
	for _, args := range [][]string{{}, {"-url", "http://x", "-zzz"}} {
		var out bytes.Buffer
		if err := traceCmd(args, &out); err == nil {
			t.Errorf("traceCmd(%v) succeeded, want error", args)
		}
	}
}
