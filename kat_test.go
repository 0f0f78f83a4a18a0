package dissent_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestHashDomainVectorsCoverEveryDomain: every "dissent/..." domain
// string in non-test Go outside benchmark/ has a vector in
// testdata/kat/hash-domains.txt, and every vector names a domain still
// in use. The package tests named TestHashDomainVectors check the
// vectors themselves.
func TestHashDomainVectorsCoverEveryDomain(t *testing.T) {
	kat, err := os.ReadFile("testdata/kat/hash-domains.txt")
	if err != nil {
		t.Fatal(err)
	}
	var vectors []string
	for _, line := range strings.Split(string(kat), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			vectors = append(vectors, f[0])
		}
	}
	literal := regexp.MustCompile(`"(dissent/[a-z0-9-]+)"`)
	var used []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (path == "benchmark" || path != "." && strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range literal.FindAllSubmatch(src, -1) {
			if d := string(m[1]); d != "dissent/dissentcfg" && !slices.Contains(used, d) {
				used = append(used, d)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range used {
		if !slices.Contains(vectors, d) {
			t.Errorf("domain %q has no vector in testdata/kat/hash-domains.txt", d)
		}
	}
	for _, d := range vectors {
		if !slices.Contains(used, d) {
			t.Errorf("vector for %q names no domain in use", d)
		}
	}
}
