package main

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"dissent/dissentcfg"
)

// TestRunRejectsBadInputs checks that every pre-serve failure path
// returns an error instead of starting the daemon.
func TestRunRejectsBadInputs(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "nope.json")
	badGroup := filepath.Join(dir, "bad-group.json")
	if err := os.WriteFile(badGroup, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-definitely-not-a-flag"}},
		{"missing group file", []string{"-group", missing}},
		{"malformed group file", []string{"-group", badGroup}},
		{"missing key file", []string{"-group", missing, "-key", missing}},
		{"second block bad", []string{"-group", badGroup, "-group", missing}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := run(tc.args); err == nil {
				t.Errorf("run(%v) succeeded, want error", tc.args)
			}
		})
	}
}

// TestRunRejectsClientKey checks a client key file is refused — the
// daemon serves server memberships only.
func TestRunRejectsClientKey(t *testing.T) {
	dir := t.TempDir()
	if _, err := dissentcfg.Generate(dir, dissentcfg.GenerateConfig{
		Servers: 2, Clients: 2, MessageGroup: "modp-512-test", BeaconEpochRounds: 0,
	}); err != nil {
		t.Fatal(err)
	}
	err := run([]string{
		"-listen", "127.0.0.1:0",
		"-group", filepath.Join(dir, "group.json"),
		"-key", filepath.Join(dir, "client-0.key"),
		"-roster", filepath.Join(dir, "roster.json"),
	})
	if err == nil {
		t.Fatal("run accepted a client key")
	}
}

// TestParseSpecsBlocks pins the positional flag grammar: each -group
// starts a new block, the satellite flags attach to the most recent
// block, and flags before any -group attach to the implicit default
// block.
func TestParseSpecsBlocks(t *testing.T) {
	parse := func(args ...string) []*sessionSpec {
		t.Helper()
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		specs := parseSpecs(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return *specs
	}

	// Two full blocks.
	specs := parse(
		"-group", "g1.json", "-key", "k1.key", "-roster", "r1.json", "-beacon", ":7080",
		"-group", "g2.json", "-key", "k2.key", "-roster", "r2.json", "-store", "s2.kv",
	)
	if len(specs) != 2 {
		t.Fatalf("got %d blocks, want 2", len(specs))
	}
	if specs[0].group != "g1.json" || specs[0].key != "k1.key" || specs[0].roster != "r1.json" || specs[0].beacon != ":7080" {
		t.Errorf("block 0 = %+v", specs[0])
	}
	if specs[1].group != "g2.json" || specs[1].key != "k2.key" || specs[1].roster != "r2.json" || specs[1].store != "s2.kv" {
		t.Errorf("block 1 = %+v", specs[1])
	}

	// These five are the whole block grammar: the beacon chain persists
	// through -store, so a dedicated chain-file flag is unknown.
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	parseSpecs(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	if want := []string{"beacon", "group", "key", "roster", "store"}; !slices.Equal(names, want) {
		t.Errorf("block flags = %v, want %v", names, want)
	}

	// Single-session compatibility: -key before -group applies to the
	// default block, whose group path is then overridden by -group.
	specs = parse("-key", "server-0.key", "-group", "custom.json")
	if len(specs) != 1 {
		t.Fatalf("got %d blocks, want 1", len(specs))
	}
	if specs[0].group != "custom.json" || specs[0].key != "server-0.key" || specs[0].roster != "roster.json" {
		t.Errorf("default block = %+v", specs[0])
	}

	// No flags at all: no blocks (the caller appends the default block
	// when the list is empty).
	if specs := parse(); len(specs) != 0 {
		t.Fatalf("empty parse produced %d blocks", len(specs))
	}
}
