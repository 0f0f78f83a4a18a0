package obs

import (
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(1.5)
	g.Add(-0.5)
	if got := g.Value(); got != 1.0 {
		t.Fatalf("gauge = %v, want 1.0", got)
	}
}

func TestHistogramBucketMath(t *testing.T) {
	h := NewHistogram(0.1, 1, 10)
	// le semantics: v <= bound lands in that bucket.
	for _, v := range []float64{0.05, 0.1} { // both <= 0.1
		h.Observe(v)
	}
	h.Observe(0.5) // (0.1, 1]
	h.Observe(1)   // boundary: still (0.1, 1]
	h.Observe(7)   // (1, 10]
	h.Observe(11)  // +Inf overflow
	s := h.Snapshot()
	wantCounts := []uint64{2, 2, 1, 1}
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Errorf("bucket %d count = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 6 {
		t.Errorf("count = %d, want 6", s.Count)
	}
	if want := 0.05 + 0.1 + 0.5 + 1 + 7 + 11; math.Abs(s.Sum-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", s.Sum, want)
	}
	h.ObserveDuration(50 * time.Millisecond) // 0.05s -> first bucket
	if got := h.Snapshot().Counts[0]; got != 3 {
		t.Errorf("first bucket after ObserveDuration = %d, want 3", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(LatencyBuckets...)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(0.003)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 8000 {
		t.Fatalf("count = %d, want 8000", s.Count)
	}
}

func TestNewHistogramValidation(t *testing.T) {
	for _, bounds := range [][]float64{{1, 1}, {2, 1}, {math.Inf(1)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds...)
		}()
	}
}

func TestEscaping(t *testing.T) {
	cases := []struct{ in, help, label string }{
		{"plain", "plain", "plain"},
		{`back\slash`, `back\\slash`, `back\\slash`},
		{"new\nline", `new\nline`, `new\nline`},
		{`quo"te`, `quo"te`, `quo\"te`},
	}
	for _, c := range cases {
		if got := escapeHelp(c.in); got != c.help {
			t.Errorf("escapeHelp(%q) = %q, want %q", c.in, got, c.help)
		}
		if got := escapeLabel(c.in); got != c.label {
			t.Errorf("escapeLabel(%q) = %q, want %q", c.in, got, c.label)
		}
	}
}

func TestWriterExposition(t *testing.T) {
	var b strings.Builder
	e := NewWriter(&b)
	e.Family("test_total", "counter", "A test\ncounter.")
	e.Sample(L("session", `s"1`), 3)
	e.Sample(nil, 4)
	h := NewHistogram(0.5, 1)
	h.Observe(0.2)
	h.Observe(0.7)
	h.Observe(5)
	e.Family("test_seconds", "histogram", "Latencies.")
	e.Hist(L("phase", "window"), h.Snapshot())
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	wants := []string{
		"# HELP test_total A test\\ncounter.\n",
		"# TYPE test_total counter\n",
		"test_total{session=\"s\\\"1\"} 3\n",
		"test_total 4\n",
		"# TYPE test_seconds histogram\n",
		`test_seconds_bucket{phase="window",le="0.5"} 1` + "\n",
		`test_seconds_bucket{phase="window",le="1"} 2` + "\n",
		`test_seconds_bucket{phase="window",le="+Inf"} 3` + "\n",
		`test_seconds_sum{phase="window"} 5.9` + "\n",
		`test_seconds_count{phase="window"} 3` + "\n",
	}
	for _, w := range wants {
		if !strings.Contains(out, w) {
			t.Errorf("exposition missing %q in:\n%s", w, out)
		}
	}
	// Every non-comment line must match the sample grammar.
	lineRE := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !lineRE.MatchString(line) {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	var c Counter
	c.Add(7)
	r.Collect(func(e *Writer) {
		e.Family("a_total", "counter", "A.")
		e.Sample(nil, float64(c.Value()))
	})
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, w := range []string{"a_total 7\n", "dissent_metrics_scrapes_total 1\n"} {
		if !strings.Contains(out, w) {
			t.Errorf("registry output missing %q in:\n%s", w, out)
		}
	}
}

func TestTraceRing(t *testing.T) {
	r := NewTraceRing(3)
	for i := uint64(1); i <= 5; i++ {
		r.Push(RoundTrace{Round: i})
	}
	got := r.Snapshot(0)
	if len(got) != 3 || got[0].Round != 3 || got[2].Round != 5 {
		t.Fatalf("snapshot = %+v, want rounds 3..5", got)
	}
	if got := r.Snapshot(2); len(got) != 2 || got[0].Round != 4 {
		t.Fatalf("snapshot(2) = %+v, want rounds 4..5", got)
	}
}
